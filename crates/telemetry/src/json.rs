//! The JSON this crate writes — flight-recorder dumps and Chrome traces
//! — and the one reader both of their readers share.
//!
//! The writers spell finite floats with `{:?}`, the shortest decimal
//! that parses back to the same bits, and the non-finite ones as the
//! strings `"NaN"`, `"+Inf"` and `"-Inf"` (the Prometheus spellings;
//! JSON has no literal for them). [`Reader`] reads what they write in
//! the order they write it: each `*_at` call reads the next field of the
//! open object, which must carry that key. Integers are read from their
//! digits, so they come back exactly whatever their width.

/// `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped.
pub(crate) fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON value that [`Reader::f64`] reads back bit for bit (any
/// NaN reads back as NaN).
pub(crate) fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else if v.is_nan() {
        "\"NaN\"".to_owned()
    } else if v > 0.0 {
        "\"+Inf\"".to_owned()
    } else {
        "\"-Inf\"".to_owned()
    }
}

/// A reader over one JSON document, field by field in writing order.
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Whether the open object or array has no item yet, so the next
    /// one takes no comma.
    first: bool,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            first: true,
        }
    }

    fn open(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.first = true;
        Ok(())
    }

    /// Closes the open object: it may hold no more fields.
    fn close(&mut self) -> Result<(), String> {
        self.expect(b'}')?;
        self.first = false;
        Ok(())
    }

    /// Ends the document: only whitespace may follow.
    pub(crate) fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos < self.text.len() {
            return Err(self.error("trailing characters"));
        }
        Ok(())
    }

    pub(crate) fn str_at(&mut self, key: &str) -> Result<String, String> {
        self.at(key, Self::str)
    }

    pub(crate) fn f64_at(&mut self, key: &str) -> Result<f64, String> {
        self.at(key, Self::f64)
    }

    pub(crate) fn uint_at<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, String> {
        self.at(key, Self::uint)
    }

    /// An object whose fields `fields` reads.
    pub(crate) fn object<T>(
        &mut self,
        fields: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        self.open()?;
        let value = fields(self)?;
        self.close()?;
        Ok(value)
    }

    /// Field `key`, an object whose fields `fields` reads.
    pub(crate) fn object_at<T>(
        &mut self,
        key: &str,
        fields: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        self.at(key, |r| r.object(fields))
    }

    /// Field `key`, an array whose items `item` reads.
    pub(crate) fn list_at<T>(
        &mut self,
        key: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.at(key, |r| {
            r.expect(b'[')?;
            r.first = true;
            let mut items = Vec::new();
            while !r.eat(b']') {
                r.separator()?;
                items.push(item(r)?);
            }
            r.first = false;
            Ok(items)
        })
    }

    /// Field `key` when it is `null`; otherwise the caller reads the
    /// value next.
    pub(crate) fn null_at(&mut self, key: &str) -> Result<bool, String> {
        self.key(key)?;
        self.skip_ws();
        let null = self.text[self.pos..].starts_with("null");
        self.pos += if null { 4 } else { 0 };
        Ok(null)
    }

    /// A float as [`number`] writes it.
    pub(crate) fn f64(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let v = if self.peek() == Some(b'"') {
            match self.str()?.as_str() {
                "NaN" => Some(f64::NAN),
                "+Inf" => Some(f64::INFINITY),
                "-Inf" => Some(f64::NEG_INFINITY),
                _ => None,
            }
        } else {
            self.number().parse().ok().filter(|v: &f64| v.is_finite())
        };
        v.ok_or_else(|| self.error("expected a float"))
    }

    /// A non-negative integer that fits `T`.
    pub(crate) fn uint<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        self.skip_ws();
        let digits = self.number();
        let v = digits.parse().ok();
        v.ok_or_else(|| self.error(&format!("expected a non-negative integer, got '{digits}'")))
    }

    /// A string literal.
    pub(crate) fn str(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control
            // character in one go; it ends on a character boundary.
            let run = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            let escaped = match (self.peek(), self.text.as_bytes().get(self.pos + 1)) {
                (Some(b'"'), _) => {
                    self.pos += 1;
                    return Ok(out);
                }
                (Some(b'\\'), Some(b'"')) => '"',
                (Some(b'\\'), Some(b'\\')) => '\\',
                (Some(b'\\'), Some(b'n')) => '\n',
                (Some(b'\\'), Some(b't')) => '\t',
                (Some(b'\\'), Some(b'r')) => '\r',
                (Some(b'\\'), Some(b'u')) => {
                    let code = self
                        .text
                        .get(self.pos + 2..self.pos + 6)
                        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .and_then(char::from_u32);
                    self.pos += 4;
                    code.ok_or_else(|| self.error("bad \\u escape"))?
                }
                (Some(b'\\'), _) => return Err(self.error("unknown escape")),
                (Some(_), _) => return Err(self.error("raw control character in string")),
                (None, _) => return Err(self.error("unterminated string")),
            };
            out.push(escaped);
            self.pos += 2;
        }
    }

    /// Reads field `key` with `read`; an error names the field.
    fn at<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        self.key(key)?;
        read(self).map_err(|e| format!("`{key}`: {e}"))
    }

    /// The next field's `"key":`.
    fn key(&mut self, key: &str) -> Result<(), String> {
        self.separator()?;
        if self.str().ok().as_deref() != Some(key) {
            return Err(self.error(&format!("expected field `{key}`")));
        }
        self.expect(b':')
    }

    /// The comma before every item of an object or array but its first.
    fn separator(&mut self) -> Result<(), String> {
        if !std::mem::replace(&mut self.first, false) {
            self.expect(b',')?;
        }
        self.skip_ws();
        Ok(())
    }

    /// The characters a number may hold; its value is for the caller
    /// to parse.
    fn number(&mut self) -> &'a str {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// After whitespace: consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if !self.eat(byte) {
            return Err(self.error(&format!("expected '{}'", byte as char)));
        }
        Ok(())
    }

    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fields_in_writing_order() {
        let s = "quote\" back\\slash\nnew\ttab\rret\u{1}\u{1f} é 雪 🔋";
        let doc = format!(
            "{{\"s\" : {}, \"f\": [{}, {}], \"u\":18446744073709551615, \"n\":null}} ",
            string(s),
            number(-0.0),
            number(f64::NAN)
        );
        let mut r = Reader::new(&doc);
        r.open().unwrap();
        assert_eq!(r.str_at("s").unwrap(), s);
        let f = r.list_at("f", Reader::f64).unwrap();
        assert_eq!(f[0].to_bits(), (-0.0f64).to_bits());
        assert!(f[1].is_nan());
        assert_eq!(r.uint_at::<u64>("u"), Ok(u64::MAX));
        assert_eq!(r.null_at("n"), Ok(true));
        r.close().unwrap();
        r.finish().unwrap();
        // A field out of order, an integer too wide and a float past
        // f64's range: only the strings spell a non-finite float.
        let field = |key: &str, text: &str| {
            let mut r = Reader::new(text);
            r.open().unwrap();
            r.f64_at(key).map(|_| ()).unwrap_err()
        };
        assert!(field("x", "{\"u\":1}").contains("`x`"));
        assert!(field("u", "{\"u\":1e400}").starts_with("`u`: "));
        let mut r = Reader::new("{\"u\":18446744073709551615}");
        r.open().unwrap();
        assert!(r.uint_at::<u32>("u").unwrap_err().starts_with("`u`: "));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        let read = |text: &str| -> Result<(), String> {
            let mut r = Reader::new(text);
            r.open()?;
            let items = r.list_at("a", |r| r.str())?;
            r.close()?;
            r.finish()?;
            assert_eq!(items, ["x", "y"]);
            Ok(())
        };
        read(" {\"a\" : [ \"x\" , \"y\" ] } ").expect("well-formed");
        for bad in [
            "",
            "{",
            "{\"a\":[\"x\",\"y\",]}",
            "{\"a\":[\"x\" \"y\"]}",
            "{\"a\" [\"x\",\"y\"]}",
            "{\"a\":[\"x\",\"y\"],}",
            "{\"b\":[\"x\",\"y\"]}",
            "{\"a\":[\"x\",\"y\"]} 2",
            "{\"a\":[\"x\\q\",\"y\"]}",
            "{\"a\":[\"\\ud800\",\"y\"]}",
            "{\"a\":[\"\\u+041\",\"y\"]}",
            "{\"a\":[\"tab\there\",\"y\"]}",
            "{\"a\":[\"x\",\"y",
        ] {
            assert!(read(bad).is_err(), "accepted {bad:?}");
        }
    }
}
