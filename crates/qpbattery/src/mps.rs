//! MPS/QPS reader and writer for convex QP/LP problems.
//!
//! The reader understands the classic fixed-column layout and the
//! whitespace-delimited free format, including the `RANGES` and `BOUNDS`
//! sections, `QUADOBJ`/`QMATRIX` quadratic terms (the `QUADOBJ`
//! convention: entries are the lower triangle of `Q` in the objective
//! `½ xᵀQx + cᵀx`), an optional `OBJSENSE` section, and an objective-row
//! RHS entry interpreted as the *negated* objective constant (the CPLEX
//! convention). Everything is lowered to the `ev-optim` canonical shape
//!
//! ```text
//! minimize   ½ zᵀHz + gᵀz        (MAXIMIZE inputs are negated)
//! subject to A_eq z = b_eq,  A_in z ≤ b_in
//! ```
//!
//! with ranged rows split into inequality pairs and column bounds lowered
//! to inequality (or, for `FX`, equality) rows.
//!
//! Deliberate non-goals, rejected with [`MpsError::Unsupported`]: integer
//! markers (`INTORG`) and integer bound kinds (`BV`/`UI`/`LI`). One
//! archaic quirk is ignored: a negative `UP` bound does not implicitly
//! drop the default zero lower bound.
//!
//! The writer emits free format and is used by the differential harness
//! to dump self-contained reproducers for solver disagreements.

use std::collections::HashMap;
use std::fmt;

use ev_linalg::{vecops, Matrix, SparseMatrix};
use ev_optim::{OptimError, QpView};

/// Which physical layout the parser should assume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpsFormat {
    /// Whitespace-delimited tokens (modern QPS collections).
    Free,
    /// Classic 1960s fixed columns: fields at character positions
    /// 2–3, 5–12, 15–22, 25–36, 40–47 and 50–61 (1-based, inclusive).
    Fixed,
}

/// Errors produced while parsing or lowering an MPS file.
#[derive(Debug, Clone, PartialEq)]
pub enum MpsError {
    /// A required section (`ROWS`, `COLUMNS`) never appeared.
    MissingSection(&'static str),
    /// A data card referenced a row not declared in `ROWS`.
    UnknownRow {
        /// 1-based source line.
        line: usize,
        /// The undeclared row name.
        name: String,
    },
    /// A data card referenced a column not introduced in `COLUMNS`.
    UnknownColumn {
        /// 1-based source line.
        line: usize,
        /// The unintroduced column name.
        name: String,
    },
    /// An unrecognized section header.
    UnknownSection {
        /// 1-based source line.
        line: usize,
        /// The header token.
        name: String,
    },
    /// A data card that does not fit its section's grammar.
    Malformed {
        /// 1-based source line.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A legal MPS feature this loader deliberately rejects.
    Unsupported {
        /// 1-based source line.
        line: usize,
        /// The rejected feature.
        what: String,
    },
    /// Lowering to a [`QpView`] failed (e.g. asymmetric `QMATRIX`).
    Build(OptimError),
}

impl fmt::Display for MpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingSection(s) => write!(f, "mps file is missing the {s} section"),
            Self::UnknownRow { line, name } => {
                write!(f, "line {line}: row '{name}' was not declared in ROWS")
            }
            Self::UnknownColumn { line, name } => {
                write!(
                    f,
                    "line {line}: column '{name}' was not introduced in COLUMNS"
                )
            }
            Self::UnknownSection { line, name } => {
                write!(f, "line {line}: unknown section header '{name}'")
            }
            Self::Malformed { line, reason } => write!(f, "line {line}: {reason}"),
            Self::Unsupported { line, what } => {
                write!(f, "line {line}: unsupported mps feature: {what}")
            }
            Self::Build(e) => write!(f, "lowering mps data to a qp failed: {e}"),
        }
    }
}

impl std::error::Error for MpsError {}

impl From<OptimError> for MpsError {
    fn from(e: OptimError) -> Self {
        Self::Build(e)
    }
}

/// A parsed MPS problem, lowered to the `ev-optim` canonical
/// minimization shape: the raw data callers round-trip, re-serialize or
/// inspect, and solve through [`LoadedQp::view`].
#[derive(Debug, Clone)]
pub struct LoadedQp {
    /// Problem name from the `NAME` card (empty if absent).
    pub name: String,
    /// True when the source file declared `OBJSENSE MAXIMIZE`; the
    /// stored `h`/`g` are already negated so the problem always
    /// *minimizes*.
    pub maximize: bool,
    /// Constant `k` of the original-sense objective `F(x) = ½xᵀQx +
    /// cᵀx + k` (from the objective-row RHS entry, negated).
    pub objective_constant: f64,
    /// Minimization Hessian (`Q`, negated when `maximize`).
    pub h: Matrix,
    /// Minimization gradient (`c`, negated when `maximize`).
    pub g: Vec<f64>,
    /// Equality rows in CSR form (`0 × n` when none), including lowered
    /// `FX` bounds.
    pub a_eq: SparseMatrix,
    /// Equality right-hand sides.
    pub b_eq: Vec<f64>,
    /// Inequality rows `A_in z ≤ b_in` in CSR form (`0 × n` when none),
    /// including split ranged rows and lowered column bounds.
    pub a_in: SparseMatrix,
    /// Inequality right-hand sides.
    pub b_in: Vec<f64>,
    /// Column names in introduction order.
    pub column_names: Vec<String>,
    /// How many of the constraint rows were synthesized from `BOUNDS`
    /// cards and default bounds (rather than `ROWS` entries).
    pub bound_rows: usize,
}

impl LoadedQp {
    /// Number of decision variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.g.len()
    }

    /// Borrows the problem as a [`QpView`] for the solver.
    ///
    /// # Errors
    ///
    /// Propagates [`QpView`] construction errors (asymmetric Hessian,
    /// non-finite data).
    pub fn view(&self) -> Result<QpView<'_>, OptimError> {
        let mut view = QpView::new(&self.h, &self.g)?;
        if !self.b_eq.is_empty() {
            view = view.with_equalities(&self.a_eq, &self.b_eq)?;
        }
        if !self.b_in.is_empty() {
            view = view.with_inequalities(&self.a_in, &self.b_in)?;
        }
        Ok(view)
    }

    /// Objective value at `z` in the *original* sense of the file,
    /// including the constant: a `MAXIMIZE` problem reports the value
    /// being maximized, not the negated internal objective.
    #[must_use]
    pub fn objective_value(&self, z: &[f64]) -> f64 {
        let hz = self.h.matvec(z).expect("dimension fixed at load");
        let internal = 0.5 * vecops::dot(z, &hz) + vecops::dot(&self.g, z);
        let sigma = if self.maximize { -1.0 } else { 1.0 };
        sigma * internal + self.objective_constant
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    None,
    ObjSense,
    Rows,
    Columns,
    Rhs,
    Ranges,
    Bounds,
    QuadObj,
    QMatrix,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowKind {
    Objective,
    Less,
    Greater,
    Equal,
}

/// Splits a data card into logical fields.
///
/// Free format tokenizes on whitespace. Fixed format slices the six
/// classic field positions and drops blank fields, which yields the same
/// token shapes the free-format grammar expects (a blank RHS/RANGES set
/// name simply disappears, leaving an even token count).
fn fields(line: &str, format: MpsFormat) -> Vec<String> {
    match format {
        MpsFormat::Free => line.split_whitespace().map(str::to_owned).collect(),
        MpsFormat::Fixed => {
            const SPANS: [(usize, usize); 6] =
                [(1, 3), (4, 12), (14, 22), (24, 36), (39, 47), (49, 61)];
            let chars: Vec<char> = line.chars().collect();
            SPANS
                .iter()
                .filter_map(|&(a, b)| {
                    let a = a.min(chars.len());
                    let b = b.min(chars.len());
                    let field: String = chars[a..b].iter().collect();
                    let t = field.trim();
                    (!t.is_empty()).then(|| t.to_owned())
                })
                .collect()
        }
    }
}

fn parse_num(tok: &str, line: usize) -> Result<f64, MpsError> {
    tok.parse::<f64>()
        .or_else(|_| tok.replace(['D', 'd'], "E").parse::<f64>())
        .map_err(|_| MpsError::Malformed {
            line,
            reason: format!("expected a number, found '{tok}'"),
        })
}

#[derive(Debug, Clone, Copy)]
struct ColBound {
    lo: f64,
    up: f64,
}

/// Parses MPS text in the given physical layout and lowers it to a
/// [`LoadedQp`].
///
/// # Errors
///
/// Returns an [`MpsError`] describing the first offending line, or a
/// [`MpsError::Build`] when the collected data cannot form a valid
/// [`QpView`].
pub fn parse_mps(text: &str, format: MpsFormat) -> Result<LoadedQp, MpsError> {
    let mut name = String::new();
    let mut maximize = false;
    let mut section = Section::None;
    let mut saw_rows = false;
    let mut saw_columns = false;

    let mut row_names: Vec<String> = Vec::new();
    let mut row_kinds: Vec<RowKind> = Vec::new();
    let mut row_index: HashMap<String, usize> = HashMap::new();
    let mut objective_row: Option<usize> = None;

    let mut col_names: Vec<String> = Vec::new();
    let mut col_index: HashMap<String, usize> = HashMap::new();

    // Sparse (row, col) -> coefficient triplets, summed on duplicates.
    let mut entries: Vec<(usize, usize, f64)> = Vec::new();
    let mut obj_coeffs: Vec<(usize, f64)> = Vec::new();
    let mut rhs: HashMap<usize, f64> = HashMap::new();
    let mut obj_rhs = 0.0;
    let mut ranges: HashMap<usize, f64> = HashMap::new();
    let mut bounds: HashMap<usize, ColBound> = HashMap::new();
    // (i, j, value, mirror): QUADOBJ entries mirror, QMATRIX entries do not.
    let mut quad: Vec<(usize, usize, f64, bool)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() || line.starts_with('*') {
            continue;
        }
        if section == Section::Done {
            break;
        }
        let is_header = !line.starts_with(' ') && !line.starts_with('\t');
        if is_header {
            let mut toks = line.split_whitespace();
            let head = toks.next().unwrap_or("");
            section = match head {
                "NAME" => {
                    name = toks.next().unwrap_or("").to_owned();
                    Section::None
                }
                "OBJSENSE" => {
                    // The sense may sit on the header line or on the
                    // following indented card.
                    match toks.next() {
                        Some(s) => {
                            maximize = parse_objsense(s, lineno)?;
                            Section::None
                        }
                        None => Section::ObjSense,
                    }
                }
                "ROWS" => {
                    saw_rows = true;
                    Section::Rows
                }
                "COLUMNS" => {
                    saw_columns = true;
                    Section::Columns
                }
                "RHS" => Section::Rhs,
                "RANGES" => Section::Ranges,
                "BOUNDS" => Section::Bounds,
                "QUADOBJ" => Section::QuadObj,
                "QMATRIX" => Section::QMatrix,
                "ENDATA" => Section::Done,
                other => {
                    return Err(MpsError::UnknownSection {
                        line: lineno,
                        name: other.to_owned(),
                    })
                }
            };
            continue;
        }

        let toks = fields(line, format);
        if toks.is_empty() {
            continue;
        }
        match section {
            Section::None | Section::Done => {
                return Err(MpsError::Malformed {
                    line: lineno,
                    reason: "data card outside any section".to_owned(),
                })
            }
            Section::ObjSense => {
                maximize = parse_objsense(&toks[0], lineno)?;
                section = Section::None;
            }
            Section::Rows => {
                if toks.len() != 2 {
                    return Err(MpsError::Malformed {
                        line: lineno,
                        reason: format!("ROWS card needs 'kind name', found {} fields", toks.len()),
                    });
                }
                let kind = match toks[0].to_ascii_uppercase().as_str() {
                    "N" => RowKind::Objective,
                    "L" => RowKind::Less,
                    "G" => RowKind::Greater,
                    "E" => RowKind::Equal,
                    other => {
                        return Err(MpsError::Malformed {
                            line: lineno,
                            reason: format!("unknown row kind '{other}'"),
                        })
                    }
                };
                let rname = toks[1].clone();
                if row_index.contains_key(&rname) {
                    return Err(MpsError::Malformed {
                        line: lineno,
                        reason: format!("duplicate row '{rname}'"),
                    });
                }
                let ridx = row_names.len();
                row_index.insert(rname.clone(), ridx);
                row_names.push(rname);
                row_kinds.push(kind);
                // The first N row is the objective; later N rows are
                // legal free rows whose coefficients are ignored.
                if kind == RowKind::Objective && objective_row.is_none() {
                    objective_row = Some(ridx);
                }
            }
            Section::Columns => {
                if toks.iter().any(|t| t == "'MARKER'") {
                    if toks.iter().any(|t| t == "'INTORG'") {
                        return Err(MpsError::Unsupported {
                            line: lineno,
                            what: "integer variables (INTORG marker)".to_owned(),
                        });
                    }
                    continue; // stray INTEND is harmless
                }
                if toks.len() < 3 || toks.len().is_multiple_of(2) {
                    return Err(MpsError::Malformed {
                        line: lineno,
                        reason: "COLUMNS card needs 'col row value [row value]'".to_owned(),
                    });
                }
                let cidx = *col_index.entry(toks[0].clone()).or_insert_with(|| {
                    col_names.push(toks[0].clone());
                    col_names.len() - 1
                });
                for pair in toks[1..].chunks(2) {
                    let ridx = *row_index
                        .get(&pair[0])
                        .ok_or_else(|| MpsError::UnknownRow {
                            line: lineno,
                            name: pair[0].clone(),
                        })?;
                    let val = parse_num(&pair[1], lineno)?;
                    if Some(ridx) == objective_row {
                        obj_coeffs.push((cidx, val));
                    } else if row_kinds[ridx] != RowKind::Objective {
                        entries.push((ridx, cidx, val));
                    }
                }
            }
            Section::Rhs | Section::Ranges => {
                // An odd token count means the first token is the
                // (arbitrary) RHS/RANGES set name; drop it.
                let pairs = if toks.len() % 2 == 1 {
                    &toks[1..]
                } else {
                    &toks[..]
                };
                if pairs.is_empty() {
                    return Err(MpsError::Malformed {
                        line: lineno,
                        reason: "RHS/RANGES card carries no (row, value) pairs".to_owned(),
                    });
                }
                for pair in pairs.chunks(2) {
                    let ridx = *row_index
                        .get(&pair[0])
                        .ok_or_else(|| MpsError::UnknownRow {
                            line: lineno,
                            name: pair[0].clone(),
                        })?;
                    let val = parse_num(&pair[1], lineno)?;
                    if section == Section::Rhs {
                        if Some(ridx) == objective_row {
                            obj_rhs = val;
                        } else {
                            *rhs.entry(ridx).or_insert(0.0) = val;
                        }
                    } else {
                        if row_kinds[ridx] == RowKind::Objective {
                            return Err(MpsError::Malformed {
                                line: lineno,
                                reason: "RANGES entry on an objective row".to_owned(),
                            });
                        }
                        ranges.insert(ridx, val);
                    }
                }
            }
            Section::Bounds => {
                parse_bound_card(&toks, lineno, &col_index, &mut bounds)?;
            }
            Section::QuadObj | Section::QMatrix => {
                if toks.len() != 3 {
                    return Err(MpsError::Malformed {
                        line: lineno,
                        reason: "QUADOBJ/QMATRIX card needs 'col col value'".to_owned(),
                    });
                }
                let i = *col_index
                    .get(&toks[0])
                    .ok_or_else(|| MpsError::UnknownColumn {
                        line: lineno,
                        name: toks[0].clone(),
                    })?;
                let j = *col_index
                    .get(&toks[1])
                    .ok_or_else(|| MpsError::UnknownColumn {
                        line: lineno,
                        name: toks[1].clone(),
                    })?;
                let val = parse_num(&toks[2], lineno)?;
                quad.push((i, j, val, section == Section::QuadObj));
            }
        }
    }

    if !saw_rows {
        return Err(MpsError::MissingSection("ROWS"));
    }
    if !saw_columns {
        return Err(MpsError::MissingSection("COLUMNS"));
    }

    let n = col_names.len();
    let sigma = if maximize { -1.0 } else { 1.0 };

    let mut g = vec![0.0; n];
    for (c, v) in obj_coeffs {
        g[c] += sigma * v;
    }
    let mut h = Matrix::zeros(n, n);
    for (i, j, v, mirror) in quad {
        h.set(i, j, sigma * v);
        if mirror && i != j {
            h.set(j, i, sigma * v);
        }
    }

    // Constraint rows, in ROWS declaration order.
    let mut row_coeffs: Vec<Vec<f64>> = vec![Vec::new(); row_names.len()];
    for &(r, c, v) in &entries {
        if row_coeffs[r].is_empty() {
            row_coeffs[r] = vec![0.0; n];
        }
        row_coeffs[r][c] += v;
    }

    let mut eq_rows: Vec<Vec<f64>> = Vec::new();
    let mut b_eq: Vec<f64> = Vec::new();
    let mut in_rows: Vec<Vec<f64>> = Vec::new();
    let mut b_in: Vec<f64> = Vec::new();
    for (r, &kind) in row_kinds.iter().enumerate() {
        if kind == RowKind::Objective {
            continue;
        }
        let coeffs = if row_coeffs[r].is_empty() {
            vec![0.0; n]
        } else {
            std::mem::take(&mut row_coeffs[r])
        };
        let b = rhs.get(&r).copied().unwrap_or(0.0);
        let rng = ranges.get(&r).copied();
        // RANGES turns a one-sided row into the interval [lo, hi].
        let (lo, hi) = match (kind, rng) {
            (RowKind::Less, None) => (f64::NEG_INFINITY, b),
            (RowKind::Less, Some(rv)) => (b - rv.abs(), b),
            (RowKind::Greater, None) => (b, f64::INFINITY),
            (RowKind::Greater, Some(rv)) => (b, b + rv.abs()),
            (RowKind::Equal, None) => (b, b),
            (RowKind::Equal, Some(0.0)) => (b, b),
            (RowKind::Equal, Some(rv)) if rv > 0.0 => (b, b + rv),
            (RowKind::Equal, Some(rv)) => (b + rv, b),
            (RowKind::Objective, _) => unreachable!(),
        };
        if lo == hi {
            eq_rows.push(coeffs);
            b_eq.push(lo);
        } else {
            if hi.is_finite() {
                in_rows.push(coeffs.clone());
                b_in.push(hi);
            }
            if lo.is_finite() {
                in_rows.push(coeffs.iter().map(|v| -v).collect());
                b_in.push(-lo);
            }
        }
    }

    // Column bounds (default 0 ≤ x < ∞) lower to rows of ±eⱼ.
    let structural_rows = eq_rows.len() + in_rows.len();
    for j in 0..n {
        let ColBound { lo, up } = bounds.get(&j).copied().unwrap_or(ColBound {
            lo: 0.0,
            up: f64::INFINITY,
        });
        let mut unit = vec![0.0; n];
        if lo == up {
            unit[j] = 1.0;
            eq_rows.push(unit);
            b_eq.push(lo);
            continue;
        }
        if up.is_finite() {
            let mut row = unit.clone();
            row[j] = 1.0;
            in_rows.push(row);
            b_in.push(up);
        }
        if lo.is_finite() {
            unit[j] = -1.0;
            in_rows.push(unit);
            b_in.push(-lo);
        }
    }
    let bound_rows = eq_rows.len() + in_rows.len() - structural_rows;

    let a_eq = SparseMatrix::from_dense(&rows_to_matrix(&eq_rows, n));
    let a_in = SparseMatrix::from_dense(&rows_to_matrix(&in_rows, n));

    let loaded = LoadedQp {
        name,
        maximize,
        objective_constant: -obj_rhs,
        h,
        g,
        a_eq,
        b_eq,
        a_in,
        b_in,
        column_names: col_names,
        bound_rows,
    };
    // Validate eagerly so a malformed file fails at load, not at solve.
    loaded.view()?;
    Ok(loaded)
}

fn parse_objsense(tok: &str, line: usize) -> Result<bool, MpsError> {
    match tok.to_ascii_uppercase().as_str() {
        "MAX" | "MAXIMIZE" => Ok(true),
        "MIN" | "MINIMIZE" => Ok(false),
        other => Err(MpsError::Malformed {
            line,
            reason: format!("unknown OBJSENSE '{other}'"),
        }),
    }
}

fn parse_bound_card(
    toks: &[String],
    line: usize,
    col_index: &HashMap<String, usize>,
    bounds: &mut HashMap<usize, ColBound>,
) -> Result<(), MpsError> {
    let kind = toks[0].to_ascii_uppercase();
    let takes_value = matches!(kind.as_str(), "UP" | "LO" | "FX");
    if matches!(kind.as_str(), "BV" | "UI" | "LI") {
        return Err(MpsError::Unsupported {
            line,
            what: format!("integer bound kind '{kind}'"),
        });
    }
    if !takes_value && !matches!(kind.as_str(), "FR" | "MI" | "PL") {
        return Err(MpsError::Malformed {
            line,
            reason: format!("unknown bound kind '{kind}'"),
        });
    }
    // Card shapes: value kinds are [kind, set, col, val] or (set name
    // omitted) [kind, col, val]; flag kinds are [kind, set, col] or
    // [kind, col]. A trailing value on a flag kind is ignored.
    let (col_tok, val_tok) = if takes_value {
        match toks.len() {
            4 => (&toks[2], Some(&toks[3])),
            3 => (&toks[1], Some(&toks[2])),
            _ => {
                return Err(MpsError::Malformed {
                    line,
                    reason: format!("bound kind '{kind}' needs a column and a value"),
                })
            }
        }
    } else {
        match toks.len() {
            4 | 3 => (&toks[2], None),
            2 => (&toks[1], None),
            _ => {
                return Err(MpsError::Malformed {
                    line,
                    reason: format!("bound kind '{kind}' needs a column"),
                })
            }
        }
    };
    let j = *col_index
        .get(col_tok.as_str())
        .ok_or_else(|| MpsError::UnknownColumn {
            line,
            name: col_tok.clone(),
        })?;
    let entry = bounds.entry(j).or_insert(ColBound {
        lo: 0.0,
        up: f64::INFINITY,
    });
    match kind.as_str() {
        "UP" => entry.up = parse_num(val_tok.expect("shape checked"), line)?,
        "LO" => entry.lo = parse_num(val_tok.expect("shape checked"), line)?,
        "FX" => {
            let v = parse_num(val_tok.expect("shape checked"), line)?;
            entry.lo = v;
            entry.up = v;
        }
        "FR" => {
            entry.lo = f64::NEG_INFINITY;
            entry.up = f64::INFINITY;
        }
        "MI" => entry.lo = f64::NEG_INFINITY,
        "PL" => entry.up = f64::INFINITY,
        _ => unreachable!(),
    }
    Ok(())
}

fn rows_to_matrix(rows: &[Vec<f64>], n: usize) -> Matrix {
    let mut m = Matrix::zeros(rows.len(), n);
    for (i, row) in rows.iter().enumerate() {
        m.row_mut(i).copy_from_slice(row);
    }
    m
}

/// Serializes a canonical-form QP as free-format MPS text.
///
/// Every variable is emitted with a `FR` bound so the parse→write→parse
/// round trip is exact (no implicit `x ≥ 0` rows appear); equality rows
/// become `E` rows and inequalities `L` rows, in order. The output is
/// self-contained and deterministic — the differential harness uses it
/// to dump reproducers for backend disagreements.
#[must_use]
pub fn write_mps(
    name: &str,
    h: &Matrix,
    g: &[f64],
    a_eq: &SparseMatrix,
    b_eq: &[f64],
    a_in: &SparseMatrix,
    b_in: &[f64],
) -> String {
    let n = g.len();
    let mut out = String::new();
    out.push_str(&format!("NAME {name}\n"));
    out.push_str("ROWS\n N OBJ\n");
    for i in 0..b_eq.len() {
        out.push_str(&format!(" E EQ{i}\n"));
    }
    for i in 0..b_in.len() {
        out.push_str(&format!(" L IN{i}\n"));
    }

    // Group constraint coefficients by column for the COLUMNS section.
    let mut per_col: Vec<Vec<(String, f64)>> = vec![Vec::new(); n];
    for r in 0..a_eq.rows() {
        let (cols, vals) = a_eq.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            per_col[c].push((format!("EQ{r}"), v));
        }
    }
    for r in 0..a_in.rows() {
        let (cols, vals) = a_in.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            per_col[c].push((format!("IN{r}"), v));
        }
    }
    out.push_str("COLUMNS\n");
    for j in 0..n {
        // Always emit the objective coefficient (even when zero) so
        // every column is introduced and ordering survives round trips.
        out.push_str(&format!(" X{j} OBJ {:.17e}\n", g[j]));
        for (row, v) in &per_col[j] {
            out.push_str(&format!(" X{j} {row} {v:.17e}\n"));
        }
    }
    out.push_str("RHS\n");
    for (i, b) in b_eq.iter().enumerate() {
        out.push_str(&format!(" RHS EQ{i} {b:.17e}\n"));
    }
    for (i, b) in b_in.iter().enumerate() {
        out.push_str(&format!(" RHS IN{i} {b:.17e}\n"));
    }
    out.push_str("BOUNDS\n");
    for j in 0..n {
        out.push_str(&format!(" FR BND X{j}\n"));
    }
    let mut quad = String::new();
    for i in 0..n {
        for j in 0..=i {
            let v = h.get(i, j);
            if v != 0.0 {
                quad.push_str(&format!(" X{i} X{j} {v:.17e}\n"));
            }
        }
    }
    if !quad.is_empty() {
        out.push_str("QUADOBJ\n");
        out.push_str(&quad);
    }
    out.push_str("ENDATA\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY_FREE: &str = "\
* comment line
NAME TINY
ROWS
 N COST
 L CAP
 G FLOOR
 E PIN
COLUMNS
 X COST 1.0 CAP 1.0
 Y COST 2.0 CAP 1.0
 Y FLOOR 1.0
 X PIN 1.0
RHS
 RHS CAP 4.0 FLOOR 0.5
 RHS PIN 1.5
 RHS COST 3.0
ENDATA
";

    #[test]
    fn parses_free_format_lp() {
        let qp = parse_mps(TINY_FREE, MpsFormat::Free).expect("parse");
        assert_eq!(qp.name, "TINY");
        assert_eq!(qp.num_vars(), 2);
        assert_eq!(qp.column_names, vec!["X".to_owned(), "Y".to_owned()]);
        // PIN is the only equality; CAP (≤), FLOOR (≥, negated) and the
        // two default x ≥ 0 bounds make four inequality rows.
        assert_eq!(qp.b_eq, vec![1.5]);
        assert_eq!(qp.b_in.len(), 4);
        assert_eq!(qp.bound_rows, 2);
        assert!((qp.objective_constant - (-3.0)).abs() < 1e-15);
        // FLOOR: y ≥ 0.5 became −y ≤ −0.5.
        assert_eq!(qp.a_in.row(1), (&[1][..], &[-1.0][..]));
        assert_eq!(qp.b_in[1], -0.5);
        assert!((qp.objective_value(&[1.5, 0.5]) - (1.5 + 1.0 - 3.0)).abs() < 1e-12);
    }

    #[test]
    fn parses_ranges_and_bounds() {
        let text = "\
NAME RNG
ROWS
 N OBJ
 L BAND
 E SLAB
COLUMNS
 X OBJ 1.0 BAND 1.0
 Y OBJ 1.0 BAND 1.0
 X SLAB 1.0
RHS
 RHS BAND 5.0 SLAB 1.0
RANGES
 RNG BAND 3.0 SLAB 2.0
BOUNDS
 UP BND X 10.0
 MI BND Y
ENDATA
";
        let qp = parse_mps(text, MpsFormat::Free).expect("parse");
        // BAND: 2 ≤ x+y ≤ 5 (two rows); SLAB: 1 ≤ x ≤ 3 (two rows);
        // bounds: x ≤ 10, x ≥ 0 (MI freed y's lower bound, PL-default
        // upper keeps y unbounded above).
        assert!(qp.b_eq.is_empty());
        assert_eq!(qp.b_in, vec![5.0, -2.0, 3.0, -1.0, 10.0, -0.0]);
        assert_eq!(qp.bound_rows, 2);
    }

    #[test]
    fn parses_fixed_format() {
        // Strict fixed columns: field1 at 2-3, field2 at 5-12,
        // field3 at 15-22, field4 at 25-36, field5 at 40-47, field6 at 50-61.
        let text = "\
NAME          FIXEDLP
ROWS
 N  COST
 L  CAP
COLUMNS
    X         COST      1.0            CAP       1.0
    Y         COST      2.0            CAP       1.0
RHS
    RHS       CAP       4.0
BOUNDS
 UP BND       X         3.0
ENDATA
";
        let qp = parse_mps(text, MpsFormat::Fixed).expect("parse");
        assert_eq!(qp.name, "FIXEDLP");
        assert_eq!(qp.num_vars(), 2);
        // CAP, x ≤ 3, x ≥ 0, y ≥ 0.
        assert_eq!(qp.b_in, vec![4.0, 3.0, -0.0, -0.0]);
        assert_eq!(qp.g, vec![1.0, 2.0]);
    }

    #[test]
    fn objsense_maximize_negates() {
        let text = "\
NAME MAXI
OBJSENSE
 MAXIMIZE
ROWS
 N OBJ
 L CAP
COLUMNS
 X OBJ 3.0 CAP 1.0
RHS
 RHS CAP 2.0 OBJ -1.0
QUADOBJ
 X X -2.0
ENDATA
";
        let qp = parse_mps(text, MpsFormat::Free).expect("parse");
        assert!(qp.maximize);
        // Internally minimized: h = 2, g = −3.
        assert_eq!(qp.h.get(0, 0), 2.0);
        assert_eq!(qp.g, vec![-3.0]);
        assert!((qp.objective_constant - 1.0).abs() < 1e-15);
        // Original-sense value at x=1: −1 + 3 + 1 = 3.
        assert!((qp.objective_value(&[1.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_integer_markers_and_unknown_rows() {
        let int_text = "\
NAME INT
ROWS
 N OBJ
COLUMNS
 M1 'MARKER' 'INTORG'
 X OBJ 1.0
ENDATA
";
        assert!(matches!(
            parse_mps(int_text, MpsFormat::Free),
            Err(MpsError::Unsupported { .. })
        ));
        let bad_row = "\
NAME BAD
ROWS
 N OBJ
COLUMNS
 X NOPE 1.0
ENDATA
";
        assert!(matches!(
            parse_mps(bad_row, MpsFormat::Free),
            Err(MpsError::UnknownRow { .. })
        ));
        assert!(matches!(
            parse_mps("NAME EMPTY\nENDATA\n", MpsFormat::Free),
            Err(MpsError::MissingSection("ROWS"))
        ));
    }

    #[test]
    fn write_then_parse_round_trips() {
        let h = Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]).expect("h");
        let g = vec![-1.0, 0.5];
        let a_eq_d = Matrix::from_rows(&[&[1.0, 1.0]]).expect("aeq");
        let a_in_d = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, -1.0]]).expect("ain");
        let a_eq = SparseMatrix::from_dense(&a_eq_d);
        let a_in = SparseMatrix::from_dense(&a_in_d);
        let text = write_mps("RT", &h, &g, &a_eq, &[1.0], &a_in, &[2.0, 0.25]);
        let qp = parse_mps(&text, MpsFormat::Free).expect("reparse");
        assert_eq!(qp.name, "RT");
        assert_eq!(qp.g, g);
        assert_eq!(qp.b_eq, vec![1.0]);
        assert_eq!(qp.b_in, vec![2.0, 0.25]);
        assert_eq!(qp.bound_rows, 0, "FR bounds must not synthesize rows");
        for i in 0..2 {
            for j in 0..2 {
                assert!((qp.h.get(i, j) - h.get(i, j)).abs() < 1e-15);
                assert!((qp.a_in.get(i, j) - a_in_d.get(i, j)).abs() < 1e-15);
            }
        }
        assert!((qp.a_eq.get(0, 0) - 1.0).abs() < 1e-15);
    }
}
