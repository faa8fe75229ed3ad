//! A Bio2RDF-style federation for the paper's "real endpoints" experiment
//! (§VI-D): DrugBank, HGNC, MGI, PharmGKB, and OMIM, with the three
//! representative workload queries R1–R3.
//!
//! Joins follow Bio2RDF practice: cross-source links go through shared
//! gene symbols (literals) and through xRef IRIs into HGNC.

use crate::common::{add, Rng, Workload};
use lusail_endpoint::NetworkProfile;
use lusail_rdf::{vocab, Dictionary, Term};
use lusail_store::{BackendKind, TripleStore};
use std::sync::Arc;

const DRUGBANK: &str = "http://drugbank.bio2rdf.org/";
const HGNC: &str = "http://hgnc.bio2rdf.org/";
const MGI: &str = "http://mgi.bio2rdf.org/";
const PGKB: &str = "http://pharmgkb.bio2rdf.org/";
const OMIM: &str = "http://omim.bio2rdf.org/";

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct Bio2RdfConfig {
    /// Number of genes in the shared symbol pool.
    pub genes: usize,
    /// Number of drugs.
    pub drugs: usize,
    /// Generator seed.
    pub seed: u64,
    /// Optional per-endpoint network profiles (5 entries).
    pub profiles: Option<Vec<NetworkProfile>>,
    /// Storage backend the endpoints are materialized into.
    pub backend: BackendKind,
}

impl Default for Bio2RdfConfig {
    fn default() -> Self {
        Bio2RdfConfig {
            genes: 200,
            drugs: 150,
            seed: 0xB102,
            profiles: None,
            backend: BackendKind::Btree,
        }
    }
}

fn iri(ns: &str, local: String) -> Term {
    Term::iri(format!("{ns}{local}"))
}

/// Generates the five-endpoint federation and queries R1–R3.
pub fn generate(config: &Bio2RdfConfig) -> Workload {
    let dict = Dictionary::shared();
    let mut rng = Rng::new(config.seed);
    let rdf_type = Term::iri(vocab::RDF_TYPE);
    let symbol = |g: usize| Term::lit(format!("SYM{g}"));

    // --- HGNC: the human gene registry ----------------------------------
    let mut hgnc = TripleStore::new(Arc::clone(&dict));
    let c_gene = iri(HGNC, "Gene".into());
    let p_symbol = iri(HGNC, "symbol".into());
    let p_hname = iri(HGNC, "approvedName".into());
    let p_status = iri(HGNC, "status".into());
    for g in 0..config.genes {
        let gene = iri(HGNC, format!("gene/{g}"));
        add(&mut hgnc, &gene, &rdf_type, &c_gene);
        add(&mut hgnc, &gene, &p_symbol, &symbol(g));
        add(
            &mut hgnc,
            &gene,
            &p_hname,
            &Term::lit(format!("human gene {g}")),
        );
        add(
            &mut hgnc,
            &gene,
            &p_status,
            &Term::lit(if g % 10 == 0 {
                "provisional"
            } else {
                "approved"
            }),
        );
    }

    // --- MGI: mouse orthologs (shares the symbol pool) ------------------
    let mut mgi = TripleStore::new(Arc::clone(&dict));
    let c_marker = iri(MGI, "Marker".into());
    let p_msymbol = iri(MGI, "symbol".into());
    let p_mname = iri(MGI, "name".into());
    for g in 0..config.genes {
        if !rng.chance(0.7) {
            continue;
        }
        let marker = iri(MGI, format!("marker/{g}"));
        add(&mut mgi, &marker, &rdf_type, &c_marker);
        add(&mut mgi, &marker, &p_msymbol, &symbol(g));
        add(
            &mut mgi,
            &marker,
            &p_mname,
            &Term::lit(format!("mouse marker {g}")),
        );
    }

    // --- DrugBank: drugs with gene targets ------------------------------
    let mut drugbank = TripleStore::new(Arc::clone(&dict));
    let c_drug = iri(DRUGBANK, "Drug".into());
    let p_dname = iri(DRUGBANK, "name".into());
    let p_target_symbol = iri(DRUGBANK, "targetSymbol".into());
    for d in 0..config.drugs {
        let drug = iri(DRUGBANK, format!("drug/{d}"));
        add(&mut drugbank, &drug, &rdf_type, &c_drug);
        add(
            &mut drugbank,
            &drug,
            &p_dname,
            &Term::lit(format!("biodrug {d}")),
        );
        for _ in 0..1 + rng.below(3) {
            add(
                &mut drugbank,
                &drug,
                &p_target_symbol,
                &symbol(rng.below(config.genes)),
            );
        }
    }

    // --- PharmGKB: gene–drug annotations (xRef into HGNC) ---------------
    let mut pgkb = TripleStore::new(Arc::clone(&dict));
    let c_ann = iri(PGKB, "Annotation".into());
    let p_gene_xref = iri(PGKB, "geneXref".into());
    let p_evidence = iri(PGKB, "evidence".into());
    for a in 0..config.genes * 2 {
        if !rng.chance(0.5) {
            continue;
        }
        let ann = iri(PGKB, format!("ann/{a}"));
        add(&mut pgkb, &ann, &rdf_type, &c_ann);
        // Interlink: PharmGKB → HGNC.
        add(
            &mut pgkb,
            &ann,
            &p_gene_xref,
            &iri(HGNC, format!("gene/{}", a % config.genes)),
        );
        add(
            &mut pgkb,
            &ann,
            &p_evidence,
            &Term::lit(format!("level {}", 1 + a % 4)),
        );
    }

    // --- OMIM: disorders linked to genes and drugs -----------------------
    let mut omim = TripleStore::new(Arc::clone(&dict));
    let c_disorder = iri(OMIM, "Disorder".into());
    let p_title = iri(OMIM, "title".into());
    let p_ogene = iri(OMIM, "geneXref".into());
    let p_odrug = iri(OMIM, "associatedDrug".into());
    for o in 0..config.genes {
        if !rng.chance(0.6) {
            continue;
        }
        let disorder = iri(OMIM, format!("disorder/{o}"));
        add(&mut omim, &disorder, &rdf_type, &c_disorder);
        add(
            &mut omim,
            &disorder,
            &p_title,
            &Term::lit(format!("disorder {o}")),
        );
        // Interlink: OMIM → HGNC.
        add(
            &mut omim,
            &disorder,
            &p_ogene,
            &iri(HGNC, format!("gene/{o}")),
        );
        // Interlink: OMIM → DrugBank.
        if rng.chance(0.5) {
            add(
                &mut omim,
                &disorder,
                &p_odrug,
                &iri(DRUGBANK, format!("drug/{}", rng.below(config.drugs))),
            );
        }
    }

    let stores = vec![
        ("DrugBank".to_string(), drugbank),
        ("HGNC".to_string(), hgnc),
        ("MGI".to_string(), mgi),
        ("PharmGKB".to_string(), pgkb),
        ("OMIM".to_string(), omim),
    ];
    Workload::assemble(
        dict,
        stores,
        config.profiles.clone(),
        queries(),
        config.backend,
    )
}

/// The three real-workload queries of §VI-D.
///
/// * R1 joins DrugBank, HGNC and MGI on gene symbols,
/// * R2 joins PharmGKB and OMIM through HGNC xRefs,
/// * R3 integrates DrugBank and OMIM via associated drugs.
pub(crate) fn queries() -> Vec<(&'static str, String)> {
    vec![
        (
            "R1",
            "SELECT ?drug ?dn ?sym ?hn ?mn WHERE { \
             ?drug a <http://drugbank.bio2rdf.org/Drug> . \
             ?drug <http://drugbank.bio2rdf.org/name> ?dn . \
             ?drug <http://drugbank.bio2rdf.org/targetSymbol> ?sym . \
             ?g <http://hgnc.bio2rdf.org/symbol> ?sym . \
             ?g <http://hgnc.bio2rdf.org/approvedName> ?hn . \
             ?m <http://mgi.bio2rdf.org/symbol> ?sym . \
             ?m <http://mgi.bio2rdf.org/name> ?mn }"
                .to_string(),
        ),
        (
            "R2",
            "SELECT ?ann ?ev ?g ?dis ?t WHERE { \
             ?ann a <http://pharmgkb.bio2rdf.org/Annotation> . \
             ?ann <http://pharmgkb.bio2rdf.org/geneXref> ?g . \
             ?ann <http://pharmgkb.bio2rdf.org/evidence> ?ev . \
             ?dis <http://omim.bio2rdf.org/geneXref> ?g . \
             ?dis <http://omim.bio2rdf.org/title> ?t }"
                .to_string(),
        ),
        (
            "R3",
            "SELECT ?dis ?t ?drug ?dn WHERE { \
             ?dis a <http://omim.bio2rdf.org/Disorder> . \
             ?dis <http://omim.bio2rdf.org/title> ?t . \
             ?dis <http://omim.bio2rdf.org/associatedDrug> ?drug . \
             ?drug <http://drugbank.bio2rdf.org/name> ?dn }"
                .to_string(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_endpoint::SparqlEndpoint;

    #[test]
    fn five_endpoints() {
        let w = generate(&Bio2RdfConfig::default());
        assert_eq!(w.federation.len(), 5);
        assert_eq!(w.endpoints[1].name(), "HGNC");
    }

    #[test]
    fn all_queries_have_oracle_answers() {
        let w = generate(&Bio2RdfConfig::default());
        for nq in &w.queries {
            let sols = lusail_store::eval::evaluate(&w.oracle, &nq.query);
            assert!(!sols.is_empty(), "{} has no oracle answers", nq.name);
        }
    }

    #[test]
    fn r1_spans_three_endpoints() {
        let w = generate(&Bio2RdfConfig::default());
        let sols = lusail_store::eval::evaluate(&w.oracle, &w.query("R1").query);
        // Rows combine DrugBank, HGNC, and MGI data (hn and mn both bound).
        assert!(sols
            .rows
            .iter()
            .all(|r| r[sols.col("hn").unwrap()].is_some() && r[sols.col("mn").unwrap()].is_some()));
    }
}
