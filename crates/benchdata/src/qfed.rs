//! A QFed-style federation: four real-world life-science sources
//! (DrugBank, Diseasome, Sider, DailyMed) with cross-dataset interlinks.
//!
//! QFed is small (~1.2M triples in the paper, scaled down here) but its
//! interlinks make federated evaluation hard: Diseasome's `possibleDrug`
//! and DailyMed's `genericMedicine` reference DrugBank drug IRIs, and
//! DrugBank's `owl:sameAs` references Sider drug IRIs. The C2P2 query
//! family exercises combinations of:
//!
//! * `F` — a selective FILTER,
//! * `B` — retrieving a *big literal* object (`drugbank:description`,
//!   ~0.5 KB each — the variant that times FedX/HiBISCuS out in Fig. 11),
//! * `O` — an OPTIONAL clause,
//!
//! plus the Drug query (asthma medicines, two OPTIONALs, four sources).

use crate::common::{add, Rng, Workload};
use lusail_endpoint::NetworkProfile;
use lusail_rdf::{vocab, Dictionary, Term};
use lusail_store::{BackendKind, TripleStore};
use std::sync::Arc;

/// Per-source namespaces.
pub const DRUGBANK: &str = "http://drugbank.org/";
/// Diseasome namespace.
pub const DISEASOME: &str = "http://diseasome.org/";
/// Sider namespace.
pub const SIDER: &str = "http://sider.org/";
/// DailyMed namespace.
pub const DAILYMED: &str = "http://dailymed.org/";

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct QfedConfig {
    /// Number of drugs in DrugBank (other sources scale off this).
    pub drugs: usize,
    /// Number of diseases in Diseasome.
    pub diseases: usize,
    /// Generator seed.
    pub seed: u64,
    /// Optional per-endpoint network profiles.
    pub profiles: Option<Vec<NetworkProfile>>,
    /// Storage backend the endpoints are materialized into.
    pub backend: BackendKind,
}

impl Default for QfedConfig {
    fn default() -> Self {
        QfedConfig {
            drugs: 300,
            diseases: 80,
            seed: 0xD0C5,
            profiles: None,
            backend: BackendKind::Btree,
        }
    }
}

fn iri(ns: &str, local: String) -> Term {
    Term::iri(format!("{ns}{local}"))
}

/// Generates the four-endpoint federation and the QFed query set.
pub fn generate(config: &QfedConfig) -> Workload {
    let dict = Dictionary::shared();
    let mut rng = Rng::new(config.seed);
    let rdf_type = Term::iri(vocab::RDF_TYPE);
    let rdfs_label = Term::iri(vocab::RDFS_LABEL);
    let same_as = Term::iri(vocab::OWL_SAME_AS);

    let n_drugs = config.drugs;
    let n_side_effects = (n_drugs / 3).max(10);
    let n_targets = (n_drugs / 5).max(10);

    // --- DrugBank -------------------------------------------------------
    let mut drugbank = TripleStore::new(Arc::clone(&dict));
    let c_db_drug = iri(DRUGBANK, "class/drugs".into());
    let p_generic = iri(DRUGBANK, "p/genericName".into());
    let p_desc = iri(DRUGBANK, "p/description".into());
    let p_indication = iri(DRUGBANK, "p/indication".into());
    let p_target = iri(DRUGBANK, "p/target".into());
    let c_db_target = iri(DRUGBANK, "class/targets".into());
    let p_gene_name = iri(DRUGBANK, "p/geneName".into());
    for t in 0..n_targets {
        let target = iri(DRUGBANK, format!("targets/{t}"));
        add(&mut drugbank, &target, &rdf_type, &c_db_target);
        add(
            &mut drugbank,
            &target,
            &p_gene_name,
            &Term::lit(format!("GENE{t}")),
        );
    }
    for i in 0..n_drugs {
        let drug = iri(DRUGBANK, format!("drugs/{i}"));
        add(&mut drugbank, &drug, &rdf_type, &c_db_drug);
        add(
            &mut drugbank,
            &drug,
            &p_generic,
            &Term::lit(format!("drugname {i}")),
        );
        // The big literal: ~0.5 KB of text per drug.
        let description = format!(
            "Drug {i} long pharmacological description: {}",
            "lorem ipsum pharmacokinetics absorption metabolism excretion ".repeat(8)
        );
        add(&mut drugbank, &drug, &p_desc, &Term::lit(description));
        if rng.chance(0.7) {
            add(
                &mut drugbank,
                &drug,
                &p_indication,
                &Term::lit(format!("indication for condition {}", i % 40)),
            );
        }
        // Interlink: DrugBank → Sider.
        if rng.chance(0.8) {
            add(
                &mut drugbank,
                &drug,
                &same_as,
                &iri(SIDER, format!("drugs/{i}")),
            );
        }
        for _ in 0..1 + rng.below(2) {
            let t = rng.below(n_targets);
            add(
                &mut drugbank,
                &drug,
                &p_target,
                &iri(DRUGBANK, format!("targets/{t}")),
            );
        }
    }

    // --- Diseasome ------------------------------------------------------
    let mut diseasome = TripleStore::new(Arc::clone(&dict));
    let c_disease = iri(DISEASOME, "class/diseases".into());
    let p_dname = iri(DISEASOME, "p/name".into());
    let p_possible = iri(DISEASOME, "p/possibleDrug".into());
    let p_degree = iri(DISEASOME, "p/degree".into());
    for j in 0..config.diseases {
        let disease = iri(DISEASOME, format!("diseases/{j}"));
        add(&mut diseasome, &disease, &rdf_type, &c_disease);
        let name = if j == 0 {
            "Asthma".to_string()
        } else {
            format!("Disease {j}")
        };
        add(&mut diseasome, &disease, &p_dname, &Term::lit(name));
        add(
            &mut diseasome,
            &disease,
            &p_degree,
            &Term::int((j % 17) as i64),
        );
        // Interlink: Diseasome → DrugBank.
        for _ in 0..2 + rng.below(4) {
            let d = rng.below(n_drugs);
            add(
                &mut diseasome,
                &disease,
                &p_possible,
                &iri(DRUGBANK, format!("drugs/{d}")),
            );
        }
    }

    // --- Sider ----------------------------------------------------------
    let mut sider = TripleStore::new(Arc::clone(&dict));
    let c_s_drug = iri(SIDER, "class/drugs".into());
    let c_se = iri(SIDER, "class/side_effects".into());
    let p_sname = iri(SIDER, "p/siderDrugName".into());
    let p_se = iri(SIDER, "p/sideEffect".into());
    for k in 0..n_side_effects {
        let se = iri(SIDER, format!("se/{k}"));
        add(&mut sider, &se, &rdf_type, &c_se);
        add(
            &mut sider,
            &se,
            &rdfs_label,
            &Term::lit(format!("side effect {k}")),
        );
    }
    for i in 0..n_drugs {
        let sdrug = iri(SIDER, format!("drugs/{i}"));
        add(&mut sider, &sdrug, &rdf_type, &c_s_drug);
        add(
            &mut sider,
            &sdrug,
            &p_sname,
            &Term::lit(format!("drugname {i}")),
        );
        for _ in 0..1 + rng.below(4) {
            let k = rng.below(n_side_effects);
            add(&mut sider, &sdrug, &p_se, &iri(SIDER, format!("se/{k}")));
        }
    }

    // --- DailyMed -------------------------------------------------------
    let mut dailymed = TripleStore::new(Arc::clone(&dict));
    let c_dm_drug = iri(DAILYMED, "class/drugs".into());
    let p_gm = iri(DAILYMED, "p/genericMedicine".into());
    let p_full = iri(DAILYMED, "p/fullName".into());
    let p_org = iri(DAILYMED, "p/organization".into());
    for i in 0..n_drugs {
        if !rng.chance(0.5) {
            continue;
        }
        let label = iri(DAILYMED, format!("labels/{i}"));
        add(&mut dailymed, &label, &rdf_type, &c_dm_drug);
        // Interlink: DailyMed → DrugBank.
        add(
            &mut dailymed,
            &label,
            &p_gm,
            &iri(DRUGBANK, format!("drugs/{i}")),
        );
        add(
            &mut dailymed,
            &label,
            &p_full,
            &Term::lit(format!("Full label of drug {i}")),
        );
        add(
            &mut dailymed,
            &label,
            &p_org,
            &Term::lit(format!("Pharma {}", i % 12)),
        );
    }

    let stores = vec![
        ("DrugBank".to_string(), drugbank),
        ("Diseasome".to_string(), diseasome),
        ("Sider".to_string(), sider),
        ("DailyMed".to_string(), dailymed),
    ];
    Workload::assemble(
        dict,
        stores,
        config.profiles.clone(),
        queries(),
        config.backend,
    )
}

/// The QFed query family of Fig. 11 plus the Drug query (§II).
pub(crate) fn queries() -> Vec<(&'static str, String)> {
    let prefixes = format!(
        "PREFIX drugbank: <{DRUGBANK}> PREFIX diseasome: <{DISEASOME}> \
         PREFIX sider: <{SIDER}> PREFIX dailymed: <{DAILYMED}> "
    );
    // The C2P2 core: drugs with their Sider side effects via owl:sameAs.
    let core = "?drug a <http://drugbank.org/class/drugs> . \
                ?drug <http://drugbank.org/p/genericName> ?name . \
                ?drug <http://www.w3.org/2002/07/owl#sameAs> ?sdrug . \
                ?sdrug a <http://sider.org/class/drugs> . \
                ?sdrug <http://sider.org/p/sideEffect> ?se . ";
    let big = "?drug <http://drugbank.org/p/description> ?desc . ";
    let filt = "FILTER (CONTAINS(STR(?name), \"drugname 1\")) ";
    let opt = "OPTIONAL { ?drug <http://drugbank.org/p/indication> ?ind } ";

    let make = |extra: &str| -> String { format!("{prefixes}SELECT * WHERE {{ {core}{extra}}}") };

    vec![
        ("C2P2", make("")),
        ("C2P2F", make(filt)),
        ("C2P2B", make(big)),
        ("C2P2O", make(opt)),
        ("C2P2OF", make(&format!("{opt}{filt}"))),
        ("C2P2BF", make(&format!("{big}{filt}"))),
        ("C2P2BO", make(&format!("{big}{opt}"))),
        ("C2P2BOF", make(&format!("{big}{opt}{filt}"))),
        (
            "Drug",
            format!(
                "{prefixes}SELECT ?disease ?drug ?ind ?fullname WHERE {{ \
                 ?disease a <http://diseasome.org/class/diseases> . \
                 ?disease <http://diseasome.org/p/name> \"Asthma\" . \
                 ?disease <http://diseasome.org/p/possibleDrug> ?drug . \
                 ?drug a <http://drugbank.org/class/drugs> . \
                 OPTIONAL {{ ?drug <http://drugbank.org/p/indication> ?ind }} \
                 OPTIONAL {{ ?dm <http://dailymed.org/p/genericMedicine> ?drug . \
                             ?dm <http://dailymed.org/p/fullName> ?fullname }} }}"
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_endpoints_with_interlinks() {
        let w = generate(&QfedConfig::default());
        assert_eq!(w.federation.len(), 4);
        // Diseasome must reference DrugBank IRIs (interlink).
        let p = w
            .dict
            .lookup(&iri(DISEASOME, "p/possibleDrug".into()))
            .unwrap();
        let mut crossing = 0;
        w.endpoints[1].store().scan(None, Some(p), None, |t| {
            if w.dict.decode(t.o).authority() == Some("http://drugbank.org") {
                crossing += 1;
            }
            true
        });
        assert!(crossing > 0);
    }

    #[test]
    fn all_queries_have_oracle_answers() {
        let w = generate(&QfedConfig::default());
        for nq in &w.queries {
            let sols = lusail_store::eval::evaluate(&w.oracle, &nq.query);
            assert!(!sols.is_empty(), "{} has no oracle answers", nq.name);
        }
    }

    #[test]
    fn filter_variant_is_more_selective() {
        let w = generate(&QfedConfig::default());
        let all = lusail_store::eval::evaluate(&w.oracle, &w.query("C2P2").query);
        let filtered = lusail_store::eval::evaluate(&w.oracle, &w.query("C2P2F").query);
        assert!(filtered.len() < all.len());
        assert!(!filtered.is_empty());
    }

    #[test]
    fn big_literal_variant_moves_more_bytes() {
        let w = generate(&QfedConfig::default());
        let plain = lusail_store::eval::evaluate(&w.oracle, &w.query("C2P2").query);
        let big = lusail_store::eval::evaluate(&w.oracle, &w.query("C2P2B").query);
        assert!(big.wire_bytes() > plain.wire_bytes());
    }

    #[test]
    fn asthma_query_touches_dailymed_optionally() {
        let w = generate(&QfedConfig::default());
        let sols = lusail_store::eval::evaluate(&w.oracle, &w.query("Drug").query);
        assert!(!sols.is_empty());
        // Some row binds ?fullname (DailyMed) and some does not (OPTIONAL).
        let col = sols.col("fullname").unwrap();
        let bound = sols.rows.iter().filter(|r| r[col].is_some()).count();
        assert!(bound > 0, "no DailyMed optional matches");
    }
}
