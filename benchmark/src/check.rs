//! Answer checking: every operation the benchmark times is compared with
//! the centralized oracle (the union of all endpoint data evaluated by the
//! store's own evaluator). A mismatch is a failed operation.

use lusail_rdf::Dictionary;
use lusail_sparql::{Query, SolutionSet};
use lusail_store::TripleStore;
use std::collections::HashSet;

/// The oracle's answer to one query.
pub struct Expected {
    /// Canonical answer of the query with any `LIMIT` removed.
    canon: SolutionSet,
    /// Rows a correct engine returns.
    rows: usize,
    /// `LIMIT` makes any `rows`-subset of `canon` correct.
    limited: bool,
}

impl Expected {
    /// Evaluates `query` on the oracle store.
    pub fn from_oracle(oracle: &TripleStore, query: &Query) -> Expected {
        let mut unlimited = query.clone();
        unlimited.limit = None;
        let canon = lusail_store::eval::evaluate(oracle, &unlimited).canonicalize();
        let rows = query.limit.map_or(canon.len(), |l| l.min(canon.len()));
        Expected {
            canon,
            rows,
            limited: query.limit.is_some(),
        }
    }

    /// Rows a correct answer has.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The per-pass check: right row count, nothing lost to a failure.
    pub fn quick(&self, rows: usize, complete: bool) -> bool {
        complete && rows == self.rows
    }

    /// The full check: the canonical solutions equal the oracle's (for a
    /// `LIMIT` query: right count, every row one of the oracle's).
    pub fn full(&self, got: &SolutionSet, complete: bool) -> bool {
        if !self.quick(got.len(), complete) {
            return false;
        }
        let got = got.canonicalize();
        if got.vars != self.canon.vars {
            return false;
        }
        if self.limited {
            got.rows
                .iter()
                .all(|row| self.canon.rows.binary_search(row).is_ok())
        } else {
            got == self.canon
        }
    }

    /// Flips one expected cell (tests: a wrong oracle must show as failures).
    #[cfg(test)]
    pub fn corrupt(&mut self) {
        let row = self.canon.rows.first_mut().expect("a non-empty answer");
        row[0] = None;
    }
}

/// The oracle's answer as the HTTP front end renders it.
pub struct ExpectedBody {
    header: String,
    total_rows: usize,
    lines: HashSet<String>,
}

impl ExpectedBody {
    /// Renders every oracle row the way `render_solutions` renders the
    /// first hundred.
    pub fn from_oracle(oracle: &TripleStore, query: &Query, dict: &Dictionary) -> ExpectedBody {
        let answer = lusail_store::eval::evaluate(oracle, query);
        let lines = answer
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|cell| match cell {
                        Some(id) => dict.decode(*id).to_string(),
                        None => "UNDEF".to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join("\t")
            })
            .collect();
        ExpectedBody {
            header: answer.vars.join("\t"),
            total_rows: answer.len(),
            lines,
        }
    }

    /// Rows of the full answer.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Status 200, equal header line, equal total row count (shown rows plus
    /// the `… (N more rows)` marker), every shown row one of the oracle's.
    pub fn matches(&self, status: u16, body: &str) -> bool {
        if status != 200 {
            return false;
        }
        let mut lines = body.lines();
        if lines.next() != Some(self.header.as_str()) {
            return false;
        }
        let mut total = 0;
        for line in lines {
            if let Some(more) = line
                .strip_prefix("… (")
                .and_then(|rest| rest.strip_suffix(" more rows)"))
            {
                match more.parse::<usize>() {
                    Ok(n) => total += n,
                    Err(_) => return false,
                }
            } else if self.lines.contains(line) {
                total += 1;
            } else {
                return false;
            }
        }
        total == self.total_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_benchdata::lubm;
    use lusail_core::Lusail;

    #[test]
    fn engine_answers_pass_and_a_flipped_expected_row_fails() {
        let w = lubm::generate(&lubm::LubmConfig::new(2));
        let engine = Lusail::default();
        for nq in &w.queries {
            let got = engine.execute(&w.federation, &nq.query).unwrap();
            let mut expected = Expected::from_oracle(&w.oracle, &nq.query);
            assert!(expected.rows() > 0, "{} is empty", nq.name);
            assert!(expected.full(&got.solutions, got.complete), "{}", nq.name);
            assert!(!expected.full(&got.solutions, false));
            assert!(!expected.quick(got.solutions.len() + 1, true));
            expected.corrupt();
            assert!(!expected.full(&got.solutions, got.complete), "{}", nq.name);
        }
    }

    #[test]
    fn limit_queries_accept_any_subset_of_the_right_size() {
        let w = lubm::generate(&lubm::LubmConfig::new(2));
        let mut q = w.query("Q3").query.clone();
        q.limit = Some(3);
        let expected = Expected::from_oracle(&w.oracle, &q);
        assert_eq!(expected.rows(), 3);
        let got = Lusail::default().execute(&w.federation, &q).unwrap();
        assert!(expected.full(&got.solutions, got.complete));
        let mut short = got.solutions.clone();
        short.truncate(2);
        assert!(!expected.full(&short, true));
    }

    #[test]
    fn rendered_bodies_are_checked_line_by_line() {
        let w = lubm::generate(&lubm::LubmConfig::new(2));
        let nq = w.query("Q1");
        let expected = ExpectedBody::from_oracle(&w.oracle, &nq.query, &w.dict);
        let got = Lusail::default().execute(&w.federation, &nq.query).unwrap();
        let body = lusail_server::http::render_solutions(&got.solutions, &w.dict);
        assert!(expected.total_rows() > 100, "want the truncation marker");
        assert!(body.contains(" more rows)"));
        assert!(expected.matches(200, &body));
        assert!(!expected.matches(206, &body));
        // One row dropped, one row altered, header altered: all caught.
        let dropped: String = body.lines().skip(2).map(|l| format!("{l}\n")).collect();
        assert!(!expected.matches(200, &format!("x\ty\tz\n{dropped}")));
        assert!(!expected.matches(200, &body.replacen("univ", "vinu", 1)));
        assert!(!expected.matches(200, &body.replacen("x\ty", "y\tx", 1)));
    }
}
