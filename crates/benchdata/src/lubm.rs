//! A LUBM-style federation: one university per endpoint, identical
//! ontology everywhere, and cross-university *degree interlinks*.
//!
//! The structural properties the paper's LUBM experiments rely on are all
//! preserved:
//!
//! * every endpoint answers every predicate (same schema), so baseline
//!   systems cannot form exclusive groups and fall into
//!   pattern-at-a-time bound joins;
//! * `doctoralDegreeFrom` / `undergraduateDegreeFrom` objects sometimes
//!   live at *other* endpoints (the red dotted interlink of Fig. 1);
//! * every university has at least one home-grown student and professor,
//!   every professor teaches, every course is taken — which makes the
//!   paper's Q1 and Q2 *disjoint* under LADE's checks while Q3 and Q4
//!   need cross-endpoint joins.
//!
//! Entity IRIs use a per-university authority (`http://univN.edu/…`) so
//! the HiBISCuS authority summaries are meaningful.

use crate::common::{add, Rng, Workload};
use lusail_endpoint::NetworkProfile;
use lusail_rdf::{Dictionary, Term};
use lusail_store::{BackendKind, TripleStore};
use std::sync::Arc;

/// The `ub:` ontology namespace used by the generator and queries.
pub const UB: &str = "http://lubm.org/ub#";

/// Generator configuration. The default (scaled-down) university is about
/// two thousand triples; the paper's is ~138k, with identical shape.
#[derive(Debug, Clone)]
pub struct LubmConfig {
    /// Number of universities = number of endpoints.
    pub universities: usize,
    /// Departments per university.
    pub departments: usize,
    /// Professors per department.
    pub professors: usize,
    /// Graduate students per department.
    pub students: usize,
    /// Courses taught by each professor.
    pub courses_per_professor: usize,
    /// Probability that a degree points at a *remote* university.
    pub remote_degree_fraction: f64,
    /// Generator seed.
    pub seed: u64,
    /// Optional per-endpoint network profiles (geo-distributed setting).
    pub profiles: Option<Vec<NetworkProfile>>,
    /// Storage backend the endpoints are materialized into.
    pub backend: BackendKind,
}

impl LubmConfig {
    /// A configuration with the default shape for `n` universities.
    pub fn new(universities: usize) -> Self {
        LubmConfig {
            universities,
            departments: 3,
            professors: 5,
            students: 25,
            courses_per_professor: 2,
            remote_degree_fraction: 0.3,
            seed: 0xC0FFEE,
            profiles: None,
            backend: BackendKind::Btree,
        }
    }
}

fn ub(local: &str) -> Term {
    Term::iri(format!("{UB}{local}"))
}

fn entity(univ: usize, local: &str) -> Term {
    Term::iri(format!("http://univ{univ}.edu/{local}"))
}

/// Generates the federation, oracle, and queries Q1–Q4.
pub fn generate(config: &LubmConfig) -> Workload {
    let dict = Dictionary::shared();
    let mut rng = Rng::new(config.seed);
    let n = config.universities;
    assert!(n >= 1, "need at least one university");

    let rdf_type = Term::iri(lusail_rdf::vocab::RDF_TYPE);
    let c_university = ub("University");
    let c_department = ub("Department");
    let c_professor = ub("Professor");
    let c_grad_student = ub("GraduateStudent");
    let c_course = ub("Course");
    let p_name = ub("name");
    let p_email = ub("emailAddress");
    let p_suborg = ub("subOrganizationOf");
    let p_works_for = ub("worksFor");
    let p_member_of = ub("memberOf");
    let p_advisor = ub("advisor");
    let p_teacher_of = ub("teacherOf");
    let p_takes = ub("takesCourse");
    let p_doctoral = ub("doctoralDegreeFrom");
    let p_undergrad = ub("undergraduateDegreeFrom");

    // A remote university for an interlinked degree: one of the next two
    // universities (mod n). This keeps e.g. "alumni of university 0" at a
    // strict subset of endpoints, which drives Q3's decomposition.
    let remote_univ = |k: usize, rng: &mut Rng| -> usize {
        if n == 1 {
            0
        } else if n == 2 {
            (k + 1) % n
        } else {
            (k + 1 + rng.below(2)) % n
        }
    };

    let mut stores = Vec::with_capacity(n);
    for k in 0..n {
        let mut st = TripleStore::new(Arc::clone(&dict));
        let uni = entity(k, &format!("University{k}"));
        add(&mut st, &uni, &rdf_type, &c_university);
        add(
            &mut st,
            &uni,
            &p_name,
            &Term::lit(format!("University {k}")),
        );

        for d in 0..config.departments {
            let dept = entity(k, &format!("Department{d}"));
            add(&mut st, &dept, &rdf_type, &c_department);
            add(&mut st, &dept, &p_suborg, &uni);
            add(
                &mut st,
                &dept,
                &p_name,
                &Term::lit(format!("Dept {d} of U{k}")),
            );

            // Professors and their courses.
            let mut courses: Vec<Term> = Vec::new();
            let mut professors: Vec<Term> = Vec::new();
            for i in 0..config.professors {
                let prof = entity(k, &format!("Dept{d}.Professor{i}"));
                add(&mut st, &prof, &rdf_type, &c_professor);
                add(&mut st, &prof, &p_works_for, &dept);
                add(
                    &mut st,
                    &prof,
                    &p_name,
                    &Term::lit(format!("Professor {i} D{d} U{k}")),
                );
                add(
                    &mut st,
                    &prof,
                    &p_email,
                    &Term::lit(format!("prof{i}.d{d}@univ{k}.edu")),
                );
                // Degrees: professor 0 of department 0 always graduated
                // locally (keeps every university self-referenced).
                let doctoral_univ =
                    if (i == 0 && d == 0) || !rng.chance(config.remote_degree_fraction) {
                        k
                    } else {
                        remote_univ(k, &mut rng)
                    };
                let target = entity(doctoral_univ, &format!("University{doctoral_univ}"));
                add(&mut st, &prof, &p_doctoral, &target);
                let ug_univ = if rng.chance(config.remote_degree_fraction / 2.0) {
                    remote_univ(k, &mut rng)
                } else {
                    k
                };
                add(
                    &mut st,
                    &prof,
                    &p_undergrad,
                    &entity(ug_univ, &format!("University{ug_univ}")),
                );
                for c in 0..config.courses_per_professor {
                    let course = entity(k, &format!("Dept{d}.Course{i}_{c}"));
                    add(&mut st, &course, &rdf_type, &c_course);
                    add(
                        &mut st,
                        &course,
                        &p_name,
                        &Term::lit(format!("Course {i}.{c} D{d} U{k}")),
                    );
                    add(&mut st, &prof, &p_teacher_of, &course);
                    courses.push(course);
                }
                professors.push(prof);
            }

            // Graduate students.
            for s in 0..config.students {
                let student = entity(k, &format!("Dept{d}.Student{s}"));
                add(&mut st, &student, &rdf_type, &c_grad_student);
                add(&mut st, &student, &p_member_of, &dept);
                add(
                    &mut st,
                    &student,
                    &p_name,
                    &Term::lit(format!("Student {s} D{d} U{k}")),
                );
                add(
                    &mut st,
                    &student,
                    &p_email,
                    &Term::lit(format!("stud{s}.d{d}@univ{k}.edu")),
                );
                let advisor_idx = rng.below(professors.len());
                add(&mut st, &student, &p_advisor, &professors[advisor_idx]);
                // First course: one taught by the advisor (keeps the Q2
                // triangle populated); second: round-robin so every course
                // has at least one student (with students ≥ courses).
                let advisor_course = &courses[advisor_idx * config.courses_per_professor
                    + rng.below(config.courses_per_professor)];
                add(&mut st, &student, &p_takes, advisor_course);
                let rr = &courses[s % courses.len()];
                if rr != advisor_course {
                    add(&mut st, &student, &p_takes, rr);
                }
                // Undergraduate degree: student 0 always local (every
                // university keeps a home-grown student), others may be
                // remote.
                let ug = if s == 0 || !rng.chance(config.remote_degree_fraction) {
                    k
                } else {
                    remote_univ(k, &mut rng)
                };
                add(
                    &mut st,
                    &student,
                    &p_undergrad,
                    &entity(ug, &format!("University{ug}")),
                );
            }
        }
        stores.push((format!("univ-{k}"), st));
    }

    let queries = queries();
    Workload::assemble(
        dict,
        stores,
        config.profiles.clone(),
        queries,
        config.backend,
    )
}

/// The paper's LUBM query set (§VI-A "Queries"): Q1/Q2 are LUBM Q2/Q9
/// (disjoint triangles), Q3 is LUBM Q13 (alumni of university 0), Q4 is
/// the paper's Q9 variation that additionally retrieves information from
/// remote universities.
pub(crate) fn queries() -> Vec<(&'static str, String)> {
    let prefix = format!("PREFIX ub: <{UB}> ");
    vec![
        (
            "Q1",
            format!(
                "{prefix}SELECT ?x ?y ?z WHERE {{ \
                 ?x a ub:GraduateStudent . \
                 ?y a ub:University . \
                 ?z a ub:Department . \
                 ?x ub:memberOf ?z . \
                 ?z ub:subOrganizationOf ?y . \
                 ?x ub:undergraduateDegreeFrom ?y }}"
            ),
        ),
        (
            "Q2",
            format!(
                "{prefix}SELECT ?x ?y ?z WHERE {{ \
                 ?x a ub:GraduateStudent . \
                 ?y a ub:Professor . \
                 ?z a ub:Course . \
                 ?x ub:advisor ?y . \
                 ?y ub:teacherOf ?z . \
                 ?x ub:takesCourse ?z }}"
            ),
        ),
        (
            "Q3",
            format!(
                "{prefix}SELECT ?x WHERE {{ \
                 ?x a ub:GraduateStudent . \
                 ?x ub:undergraduateDegreeFrom <http://univ0.edu/University0> }}"
            ),
        ),
        (
            "Q4",
            format!(
                "{prefix}SELECT ?x ?y ?u ?n WHERE {{ \
                 ?x a ub:GraduateStudent . \
                 ?x ub:advisor ?y . \
                 ?y ub:teacherOf ?z . \
                 ?x ub:takesCourse ?z . \
                 ?y ub:doctoralDegreeFrom ?u . \
                 ?u ub:name ?n }}"
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    use lusail_endpoint::SparqlEndpoint;

    #[test]
    fn generator_is_deterministic() {
        let w1 = generate(&LubmConfig::new(2));
        let w2 = generate(&LubmConfig::new(2));
        assert_eq!(w1.oracle.len(), w2.oracle.len());
        assert_eq!(
            w1.endpoints[0].triple_count(),
            w2.endpoints[0].triple_count()
        );
    }

    #[test]
    fn every_university_is_self_contained() {
        let w = generate(&LubmConfig::new(4));
        for ep in &w.endpoints {
            let st = ep.store();
            // Every endpoint has all core predicates.
            for p in [
                "advisor",
                "takesCourse",
                "teacherOf",
                "doctoralDegreeFrom",
                "undergraduateDegreeFrom",
                "memberOf",
                "subOrganizationOf",
                "name",
            ] {
                let id = st.dict().lookup(&ub(p)).unwrap();
                assert!(
                    st.estimate(None, Some(id), None) > 0,
                    "endpoint {} lacks ub:{p}",
                    ep.name()
                );
            }
        }
    }

    #[test]
    fn interlinks_exist() {
        let w = generate(&LubmConfig::new(4));
        // Some doctoral degree at endpoint k must reference another
        // university's entity.
        let dict = &w.dict;
        let p = dict.lookup(&ub("doctoralDegreeFrom")).unwrap();
        let mut remote_links = 0;
        for (k, ep) in w.endpoints.iter().enumerate() {
            let authority = format!("http://univ{k}.edu");
            ep.store().scan(None, Some(p), None, |t| {
                let obj = dict.decode(t.o);
                if obj.authority() != Some(authority.as_str()) {
                    remote_links += 1;
                }
                true
            });
        }
        assert!(remote_links > 0, "no degree interlinks generated");
    }

    #[test]
    fn queries_parse_and_have_oracle_answers() {
        let w = generate(&LubmConfig::new(4));
        for nq in &w.queries {
            let sols = lusail_store::eval::evaluate(&w.oracle, &nq.query);
            assert!(!sols.is_empty(), "{} has no oracle answers", nq.name);
        }
    }

    #[test]
    fn q4_needs_cross_endpoint_rows() {
        // Q4's (?u name ?n) must bind names of remote universities for
        // professors with remote doctorates: verify at least one result row
        // references a university different from the student's own.
        let w = generate(&LubmConfig::new(4));
        let q4 = w.query("Q4");
        let sols = lusail_store::eval::evaluate(&w.oracle, &q4.query);
        let dict = &w.dict;
        let xcol = sols.col("x").unwrap();
        let ucol = sols.col("u").unwrap();
        let crossing = sols.rows.iter().any(|row| {
            let x = dict.decode(row[xcol].unwrap());
            let u = dict.decode(row[ucol].unwrap());
            x.authority() != u.authority()
        });
        assert!(crossing, "no Q4 row traverses an interlink");
    }
}
