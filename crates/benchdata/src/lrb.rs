//! A LargeRDFBench-style federation: 13 sources, three query categories.
//!
//! LargeRDFBench (Saleem et al.) federates 13 real datasets totalling
//! over a billion triples; the paper uses it for Figs. 9, 10(a), 13 and
//! 14. This module rebuilds its *join structure* at configurable scale:
//!
//! * the three LinkedTCGA slices (methylation / expression / annotations)
//!   share patient IRIs and gene symbols, and the cancer-genomics queries
//!   join them with Affymetrix probesets — these drive the **large (B)**
//!   category's huge intermediate results;
//! * the life-science chain DrugBank → KEGG → ChEBI and the
//!   DBpedia `owl:sameAs` cloud (NYT, LinkedMDB, SWDF, GeoNames) drive
//!   the **simple (S)** and **complex (C)** categories;
//! * `owl:sameAs` is answerable at five different endpoints, making it
//!   exactly the kind of generic predicate whose subqueries SAPE delays.
//!
//! Queries: S1–S14, C1–C10 (C5 excluded, as in the paper), and B1–B8
//! (B5/B6 excluded, as in the paper) — 29 runnable queries.

use crate::common::{add, Rng, Workload};
use lusail_endpoint::NetworkProfile;
use lusail_rdf::{vocab, Dictionary, Term};
use lusail_store::{BackendKind, TripleStore};
use std::sync::Arc;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct LrbConfig {
    /// Linear scale factor on all entity counts (1.0 ≈ 45k triples).
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Optional per-endpoint network profiles (13 entries).
    pub profiles: Option<Vec<NetworkProfile>>,
    /// Storage backend the endpoints are materialized into.
    pub backend: BackendKind,
}

impl Default for LrbConfig {
    fn default() -> Self {
        LrbConfig {
            scale: 1.0,
            seed: 0x1DB,
            profiles: None,
            backend: BackendKind::Btree,
        }
    }
}

/// The 13 endpoint names, matching Table I of the paper.
pub const ENDPOINT_NAMES: [&str; 13] = [
    "LinkedTCGA-M",
    "LinkedTCGA-E",
    "LinkedTCGA-A",
    "ChEBI",
    "DBPedia-Subset",
    "DrugBank",
    "GeoNames",
    "Jamendo",
    "KEGG",
    "LinkedMDB",
    "New York Times",
    "Semantic Web Dog Food",
    "Affymetrix",
];

const TCGA: &str = "http://tcga.org/";
const CHEBI: &str = "http://chebi.org/";
const DBP: &str = "http://dbpedia.org/";
const DRUGBANK: &str = "http://drugbank.org/";
const GEO: &str = "http://geonames.org/";
const JAM: &str = "http://jamendo.org/";
const KEGG: &str = "http://kegg.org/";
const LMDB: &str = "http://linkedmdb.org/";
const NYT: &str = "http://nytimes.org/";
const SWDF: &str = "http://swdf.org/";
const AFFY: &str = "http://affymetrix.org/";

const COUNTRIES: [&str; 8] = ["US", "GB", "DE", "FR", "ES", "IT", "EG", "JP"];
const DISEASES: [&str; 5] = ["BRCA", "GBM", "OV", "LUAD", "COAD"];

fn iri(ns: &str, local: String) -> Term {
    Term::iri(format!("{ns}{local}"))
}

/// Generates the 13-endpoint federation and all 27 queries.
pub fn generate(config: &LrbConfig) -> Workload {
    let dict = Dictionary::shared();
    let mut rng = Rng::new(config.seed);
    let sc = |base: usize| -> usize { ((base as f64 * config.scale) as usize).max(2) };

    let rdf_type = Term::iri(vocab::RDF_TYPE);
    let rdfs_label = Term::iri(vocab::RDFS_LABEL);
    let same_as = Term::iri(vocab::OWL_SAME_AS);

    let n_genes = sc(200);
    let gene = |g: usize| Term::lit(format!("GENE{g}"));

    let n_patients = sc(300);
    let n_meth = n_patients * 8;
    let n_expr = n_patients * 6;
    let n_chebi = sc(250);
    let n_kegg = sc(220);
    let n_drugs = sc(200);
    let n_dbp_drugs = sc(200);
    let n_films = sc(200);
    let n_persons = sc(150);
    let n_places = sc(100);
    let n_geo = sc(500);
    let n_artists = sc(250);
    let n_mfilms = sc(250);
    let n_nyt = sc(120);
    let n_papers = sc(100);
    let n_authors = sc(70);
    let n_probes = sc(400);

    // --- LinkedTCGA-A: patient annotations -----------------------------
    let mut tcga_a = TripleStore::new(Arc::clone(&dict));
    let c_patient = iri(TCGA, "Patient".into());
    let p_barcode = iri(TCGA, "bcr_patient_barcode".into());
    let p_disease = iri(TCGA, "disease".into());
    let p_gender = iri(TCGA, "gender".into());
    let p_country = iri(TCGA, "country".into());
    for i in 0..n_patients {
        let p = iri(TCGA, format!("patient/{i}"));
        add(&mut tcga_a, &p, &rdf_type, &c_patient);
        add(
            &mut tcga_a,
            &p,
            &p_barcode,
            &Term::lit(format!("TCGA-{i:05}")),
        );
        add(
            &mut tcga_a,
            &p,
            &p_disease,
            &Term::lit(DISEASES[i % DISEASES.len()]),
        );
        add(
            &mut tcga_a,
            &p,
            &p_gender,
            &Term::lit(if i % 2 == 0 { "male" } else { "female" }),
        );
        add(
            &mut tcga_a,
            &p,
            &p_country,
            &Term::lit(COUNTRIES[i % COUNTRIES.len()]),
        );
    }

    // --- LinkedTCGA-M: methylation results ------------------------------
    let mut tcga_m = TripleStore::new(Arc::clone(&dict));
    let p_meth_patient = iri(TCGA, "methPatient".into());
    let p_gene_symbol = iri(TCGA, "gene_symbol".into());
    let p_beta = iri(TCGA, "beta_value".into());
    for j in 0..n_meth {
        let m = iri(TCGA, format!("meth/{j}"));
        // Interlink: methylation results reference TCGA-A patient IRIs.
        add(
            &mut tcga_m,
            &m,
            &p_meth_patient,
            &iri(TCGA, format!("patient/{}", j % n_patients)),
        );
        add(&mut tcga_m, &m, &p_gene_symbol, &gene(rng.below(n_genes)));
        add(&mut tcga_m, &m, &p_beta, &Term::int(rng.below(100) as i64));
    }

    // --- LinkedTCGA-E: expression results --------------------------------
    let mut tcga_e = TripleStore::new(Arc::clone(&dict));
    let p_expr_patient = iri(TCGA, "exprPatient".into());
    let p_rpkm = iri(TCGA, "rpkm".into());
    for j in 0..n_expr {
        let e = iri(TCGA, format!("expr/{j}"));
        add(
            &mut tcga_e,
            &e,
            &p_expr_patient,
            &iri(TCGA, format!("patient/{}", j % n_patients)),
        );
        add(&mut tcga_e, &e, &p_gene_symbol, &gene(rng.below(n_genes)));
        add(&mut tcga_e, &e, &p_rpkm, &Term::int(rng.below(120) as i64));
    }

    // --- ChEBI ------------------------------------------------------------
    let mut chebi = TripleStore::new(Arc::clone(&dict));
    let c_compound = iri(CHEBI, "Compound".into());
    let p_title = iri(CHEBI, "title".into());
    let p_mass = iri(CHEBI, "mass".into());
    for c in 0..n_chebi {
        let comp = iri(CHEBI, format!("compound/{c}"));
        add(&mut chebi, &comp, &rdf_type, &c_compound);
        add(
            &mut chebi,
            &comp,
            &p_title,
            &Term::lit(format!("compound {c}")),
        );
        add(
            &mut chebi,
            &comp,
            &p_mass,
            &Term::int((50 + rng.below(900)) as i64),
        );
    }

    // --- KEGG --------------------------------------------------------------
    let mut kegg = TripleStore::new(Arc::clone(&dict));
    let c_kcompound = iri(KEGG, "Compound".into());
    let p_xref = iri(KEGG, "xRef".into());
    let p_formula = iri(KEGG, "formula".into());
    for k in 0..n_kegg {
        let comp = iri(KEGG, format!("compound/{k}"));
        add(&mut kegg, &comp, &rdf_type, &c_kcompound);
        add(
            &mut kegg,
            &comp,
            &p_formula,
            &Term::lit(format!("C{}H{}O{}", k % 30, k % 50, k % 10)),
        );
        if rng.chance(0.7) {
            // Interlink: KEGG → ChEBI.
            add(
                &mut kegg,
                &comp,
                &p_xref,
                &iri(CHEBI, format!("compound/{}", rng.below(n_chebi))),
            );
        }
    }

    // --- DrugBank ------------------------------------------------------------
    let mut drugbank = TripleStore::new(Arc::clone(&dict));
    let c_drug = iri(DRUGBANK, "class/drugs".into());
    let p_generic = iri(DRUGBANK, "p/genericName".into());
    let p_kegg_id = iri(DRUGBANK, "p/keggCompoundId".into());
    let p_cas = iri(DRUGBANK, "p/casRegistryNumber".into());
    let p_target_gene = iri(DRUGBANK, "p/targetGene".into());
    for i in 0..n_drugs {
        let d = iri(DRUGBANK, format!("drugs/{i}"));
        add(&mut drugbank, &d, &rdf_type, &c_drug);
        add(
            &mut drugbank,
            &d,
            &p_generic,
            &Term::lit(format!("drugname {i}")),
        );
        add(
            &mut drugbank,
            &d,
            &p_cas,
            &Term::lit(format!("{}-{}-{}", 50 + i, i % 90, i % 9)),
        );
        add(&mut drugbank, &d, &p_target_gene, &gene(rng.below(n_genes)));
        if rng.chance(0.6) {
            // Interlink: DrugBank → KEGG.
            add(
                &mut drugbank,
                &d,
                &p_kegg_id,
                &iri(KEGG, format!("compound/{}", rng.below(n_kegg))),
            );
        }
        if rng.chance(0.5) {
            // Interlink: DrugBank → DBpedia.
            add(
                &mut drugbank,
                &d,
                &same_as,
                &iri(DBP, format!("drug/{}", i % n_dbp_drugs)),
            );
        }
    }

    // --- DBpedia subset -------------------------------------------------------
    let mut dbpedia = TripleStore::new(Arc::clone(&dict));
    let c_dbp_drug = iri(DBP, "Drug".into());
    let c_film = iri(DBP, "Film".into());
    let c_person = iri(DBP, "Person".into());
    let c_place = iri(DBP, "Place".into());
    for i in 0..n_dbp_drugs {
        let d = iri(DBP, format!("drug/{i}"));
        add(&mut dbpedia, &d, &rdf_type, &c_dbp_drug);
        add(
            &mut dbpedia,
            &d,
            &rdfs_label,
            &Term::lit(format!("dbpedia drug {i}")),
        );
    }
    let p_director = iri(DBP, "director".into());
    for f in 0..n_films {
        let film = iri(DBP, format!("film/{f}"));
        add(&mut dbpedia, &film, &rdf_type, &c_film);
        add(
            &mut dbpedia,
            &film,
            &rdfs_label,
            &Term::lit(format!("dbpedia film {f}")),
        );
        add(
            &mut dbpedia,
            &film,
            &p_director,
            &iri(DBP, format!("person/{}", f % n_persons)),
        );
    }
    for p in 0..n_persons {
        let person = iri(DBP, format!("person/{p}"));
        add(&mut dbpedia, &person, &rdf_type, &c_person);
        add(
            &mut dbpedia,
            &person,
            &rdfs_label,
            &Term::lit(format!("dbpedia person {p}")),
        );
    }
    for l in 0..n_places {
        let place = iri(DBP, format!("place/{l}"));
        add(&mut dbpedia, &place, &rdf_type, &c_place);
        add(
            &mut dbpedia,
            &place,
            &rdfs_label,
            &Term::lit(format!("dbpedia place {l}")),
        );
        if rng.chance(0.5) {
            // Interlink: DBpedia → GeoNames.
            add(
                &mut dbpedia,
                &place,
                &same_as,
                &iri(GEO, format!("loc/{}", rng.below(n_geo))),
            );
        }
    }

    // --- GeoNames ---------------------------------------------------------------
    let mut geonames = TripleStore::new(Arc::clone(&dict));
    let c_feature = iri(GEO, "Feature".into());
    let p_gname = iri(GEO, "name".into());
    let p_cc = iri(GEO, "countryCode".into());
    let p_pop = iri(GEO, "population".into());
    for l in 0..n_geo {
        let loc = iri(GEO, format!("loc/{l}"));
        add(&mut geonames, &loc, &rdf_type, &c_feature);
        add(
            &mut geonames,
            &loc,
            &p_gname,
            &Term::lit(format!("location {l}")),
        );
        add(
            &mut geonames,
            &loc,
            &p_cc,
            &Term::lit(COUNTRIES[l % COUNTRIES.len()]),
        );
        add(
            &mut geonames,
            &loc,
            &p_pop,
            &Term::int((rng.below(5_000_000)) as i64),
        );
    }

    // --- Jamendo -----------------------------------------------------------------
    let mut jamendo = TripleStore::new(Arc::clone(&dict));
    let c_artist = iri(JAM, "MusicArtist".into());
    let c_record = iri(JAM, "Record".into());
    let p_jname = iri(JAM, "name".into());
    let p_near = iri(JAM, "based_near".into());
    let p_maker = iri(JAM, "maker".into());
    for a in 0..n_artists {
        let artist = iri(JAM, format!("artist/{a}"));
        add(&mut jamendo, &artist, &rdf_type, &c_artist);
        add(
            &mut jamendo,
            &artist,
            &p_jname,
            &Term::lit(format!("artist {a}")),
        );
        // Interlink: Jamendo → GeoNames.
        add(
            &mut jamendo,
            &artist,
            &p_near,
            &iri(GEO, format!("loc/{}", rng.below(n_geo))),
        );
        let record = iri(JAM, format!("record/{a}"));
        add(&mut jamendo, &record, &rdf_type, &c_record);
        add(&mut jamendo, &record, &p_maker, &artist);
    }

    // --- LinkedMDB ------------------------------------------------------------------
    let mut lmdb = TripleStore::new(Arc::clone(&dict));
    let c_mfilm = iri(LMDB, "Film".into());
    let p_mtitle = iri(LMDB, "title".into());
    let p_mdirector = iri(LMDB, "director".into());
    let p_dname = iri(LMDB, "directorName".into());
    for f in 0..n_mfilms {
        let film = iri(LMDB, format!("film/{f}"));
        add(&mut lmdb, &film, &rdf_type, &c_mfilm);
        add(
            &mut lmdb,
            &film,
            &p_mtitle,
            &Term::lit(format!("movie {f}")),
        );
        let dir = iri(LMDB, format!("director/{}", f % (n_mfilms / 4).max(1)));
        add(&mut lmdb, &film, &p_mdirector, &dir);
        add(
            &mut lmdb,
            &dir,
            &p_dname,
            &Term::lit(format!("director {}", f % (n_mfilms / 4).max(1))),
        );
        if rng.chance(0.6) {
            // Interlink: LinkedMDB → DBpedia.
            add(
                &mut lmdb,
                &film,
                &same_as,
                &iri(DBP, format!("film/{}", f % n_films)),
            );
        }
    }

    // --- New York Times ------------------------------------------------------------
    let mut nyt = TripleStore::new(Arc::clone(&dict));
    let c_entity = iri(NYT, "Entity".into());
    let p_nname = iri(NYT, "name".into());
    let p_articles = iri(NYT, "articleCount".into());
    for e in 0..n_nyt {
        let ent = iri(NYT, format!("entity/{e}"));
        add(&mut nyt, &ent, &rdf_type, &c_entity);
        add(
            &mut nyt,
            &ent,
            &p_nname,
            &Term::lit(format!("nyt entity {e}")),
        );
        add(
            &mut nyt,
            &ent,
            &p_articles,
            &Term::int(rng.below(500) as i64),
        );
        // Interlink: NYT → DBpedia persons or GeoNames locations.
        if e % 2 == 0 {
            add(
                &mut nyt,
                &ent,
                &same_as,
                &iri(DBP, format!("person/{}", e % n_persons)),
            );
        } else {
            add(
                &mut nyt,
                &ent,
                &same_as,
                &iri(GEO, format!("loc/{}", rng.below(n_geo))),
            );
        }
    }

    // --- Semantic Web Dog Food -------------------------------------------------------
    let mut swdf = TripleStore::new(Arc::clone(&dict));
    let c_paper = iri(SWDF, "InProceedings".into());
    let p_ptitle = iri(SWDF, "title".into());
    let p_author = iri(SWDF, "author".into());
    let p_aname = iri(SWDF, "name".into());
    for a in 0..n_authors {
        let author = iri(SWDF, format!("author/{a}"));
        add(
            &mut swdf,
            &author,
            &p_aname,
            &Term::lit(format!("author {a}")),
        );
        if rng.chance(0.4) {
            // Interlink: SWDF → DBpedia.
            add(
                &mut swdf,
                &author,
                &same_as,
                &iri(DBP, format!("person/{}", a % n_persons)),
            );
        }
    }
    for p in 0..n_papers {
        let paper = iri(SWDF, format!("paper/{p}"));
        add(&mut swdf, &paper, &rdf_type, &c_paper);
        add(
            &mut swdf,
            &paper,
            &p_ptitle,
            &Term::lit(format!("paper {p}")),
        );
        add(
            &mut swdf,
            &paper,
            &p_author,
            &iri(SWDF, format!("author/{}", p % n_authors)),
        );
        if p % 3 == 0 {
            add(
                &mut swdf,
                &paper,
                &p_author,
                &iri(SWDF, format!("author/{}", (p + 1) % n_authors)),
            );
        }
    }

    // --- Affymetrix --------------------------------------------------------------------
    let mut affy = TripleStore::new(Arc::clone(&dict));
    let c_probe = iri(AFFY, "Probeset".into());
    let p_symbol = iri(AFFY, "symbol".into());
    let p_chromosome = iri(AFFY, "chromosome".into());
    for pr in 0..n_probes {
        let probe = iri(AFFY, format!("probe/{pr}"));
        add(&mut affy, &probe, &rdf_type, &c_probe);
        add(&mut affy, &probe, &p_symbol, &gene(pr % n_genes));
        add(
            &mut affy,
            &probe,
            &p_chromosome,
            &Term::lit(format!("chr{}", 1 + pr % 5)),
        );
    }

    let stores = vec![
        (ENDPOINT_NAMES[0].to_string(), tcga_m),
        (ENDPOINT_NAMES[1].to_string(), tcga_e),
        (ENDPOINT_NAMES[2].to_string(), tcga_a),
        (ENDPOINT_NAMES[3].to_string(), chebi),
        (ENDPOINT_NAMES[4].to_string(), dbpedia),
        (ENDPOINT_NAMES[5].to_string(), drugbank),
        (ENDPOINT_NAMES[6].to_string(), geonames),
        (ENDPOINT_NAMES[7].to_string(), jamendo),
        (ENDPOINT_NAMES[8].to_string(), kegg),
        (ENDPOINT_NAMES[9].to_string(), lmdb),
        (ENDPOINT_NAMES[10].to_string(), nyt),
        (ENDPOINT_NAMES[11].to_string(), swdf),
        (ENDPOINT_NAMES[12].to_string(), affy),
    ];
    Workload::assemble(
        dict,
        stores,
        config.profiles.clone(),
        queries(),
        config.backend,
    )
}

/// Query names by category, in the order the paper plots them.
pub fn category(name: &str) -> &'static str {
    match name.as_bytes()[0] {
        b'S' => "simple",
        b'C' => "complex",
        b'B' => "large",
        _ => "other",
    }
}

/// The 27 queries: S1–S14 (simple), C1–C10 minus C5 (complex), B1–B8
/// minus B5/B6 (large). C5/B5/B6 contain disjoint filter-joined subgraphs
/// that neither Lusail nor its competitors support (§VI-A).
pub fn queries() -> Vec<(&'static str, String)> {
    let q = |body: &str| format!("SELECT * WHERE {{ {body} }}");
    vec![
        // ---------------- simple ----------------
        (
            "S1",
            q("?d a <http://drugbank.org/class/drugs> . \
                  ?d <http://www.w3.org/2002/07/owl#sameAs> ?dbp . \
                  ?dbp a <http://dbpedia.org/Drug> . \
                  ?dbp <http://www.w3.org/2000/01/rdf-schema#label> ?l"),
        ),
        (
            "S2",
            q("?e a <http://nytimes.org/Entity> . \
                  ?e <http://www.w3.org/2002/07/owl#sameAs> ?p . \
                  ?p a <http://dbpedia.org/Person> . \
                  ?p <http://www.w3.org/2000/01/rdf-schema#label> ?n"),
        ),
        (
            "S3",
            q("?f a <http://linkedmdb.org/Film> . \
                  ?f <http://www.w3.org/2002/07/owl#sameAs> ?df . \
                  ?df <http://www.w3.org/2000/01/rdf-schema#label> ?n"),
        ),
        (
            "S4",
            q("?a a <http://jamendo.org/MusicArtist> . \
                  ?a <http://jamendo.org/name> ?n . \
                  ?a <http://jamendo.org/based_near> ?loc . \
                  ?loc <http://geonames.org/name> ?ln"),
        ),
        (
            "S5",
            q("?d a <http://drugbank.org/class/drugs> . \
                  ?d <http://drugbank.org/p/keggCompoundId> ?k . \
                  ?k <http://kegg.org/formula> ?f"),
        ),
        (
            "S6",
            q("?k a <http://kegg.org/Compound> . \
                  ?k <http://kegg.org/xRef> ?c . \
                  ?c <http://chebi.org/title> ?t"),
        ),
        (
            "S7",
            q("?d a <http://drugbank.org/class/drugs> . \
                  ?d <http://drugbank.org/p/keggCompoundId> ?k . \
                  ?k <http://kegg.org/xRef> ?c . \
                  ?c <http://chebi.org/title> ?t"),
        ),
        (
            "S8",
            q("?p a <http://swdf.org/InProceedings> . \
                  ?p <http://swdf.org/author> ?a . \
                  ?a <http://swdf.org/name> ?n"),
        ),
        (
            "S9",
            q("?l <http://geonames.org/countryCode> \"US\" . \
                  ?l <http://geonames.org/name> ?n . \
                  ?e <http://www.w3.org/2002/07/owl#sameAs> ?l . \
                  ?e <http://nytimes.org/name> ?en"),
        ),
        (
            "S10",
            q("?d <http://drugbank.org/p/genericName> ?n . \
                   ?d <http://www.w3.org/2002/07/owl#sameAs> ?dbp . \
                   ?dbp <http://www.w3.org/2000/01/rdf-schema#label> ?l"),
        ),
        (
            "S11",
            q("?f a <http://linkedmdb.org/Film> . \
                   ?f <http://linkedmdb.org/director> ?dir . \
                   ?dir <http://linkedmdb.org/directorName> ?n"),
        ),
        (
            "S12",
            q("?p a <http://tcga.org/Patient> . \
                   ?p <http://tcga.org/disease> \"BRCA\" . \
                   ?p <http://tcga.org/gender> ?g . \
                   ?p <http://tcga.org/bcr_patient_barcode> ?b"),
        ),
        (
            "S13",
            q("?pr a <http://affymetrix.org/Probeset> . \
                   ?pr <http://affymetrix.org/symbol> ?s . \
                   ?m <http://tcga.org/gene_symbol> ?s . \
                   ?m <http://tcga.org/beta_value> ?v"),
        ),
        (
            "S14",
            q("?p a <http://tcga.org/Patient> . \
                   ?p <http://tcga.org/country> ?c . \
                   ?l <http://geonames.org/countryCode> ?c . \
                   ?l <http://geonames.org/population> ?pop"),
        ),
        // ---------------- complex ----------------
        (
            "C1",
            q("?p a <http://tcga.org/Patient> . \
                  ?p <http://tcga.org/disease> \"GBM\" . \
                  ?p <http://tcga.org/bcr_patient_barcode> ?b . \
                  ?m <http://tcga.org/methPatient> ?p . \
                  ?m <http://tcga.org/gene_symbol> ?s . \
                  ?m <http://tcga.org/beta_value> ?bv . \
                  ?pr <http://affymetrix.org/symbol> ?s . \
                  ?pr <http://affymetrix.org/chromosome> ?chr . \
                  FILTER (?bv > 50)"),
        ),
        (
            "C2",
            q("?d a <http://drugbank.org/class/drugs> . \
                  ?d <http://drugbank.org/p/genericName> ?n . \
                  ?d <http://drugbank.org/p/casRegistryNumber> ?cas . \
                  ?d <http://drugbank.org/p/keggCompoundId> ?k . \
                  ?k <http://kegg.org/formula> ?f . \
                  ?k <http://kegg.org/xRef> ?c . \
                  ?c <http://chebi.org/title> ?t . \
                  FILTER (CONTAINS(STR(?n), \"drugname 11\"))"),
        ),
        (
            "C3",
            q("?d a <http://drugbank.org/class/drugs> . \
                  ?d <http://drugbank.org/p/genericName> ?n . \
                  ?d <http://www.w3.org/2002/07/owl#sameAs> ?dbp . \
                  ?dbp a <http://dbpedia.org/Drug> . \
                  ?dbp <http://www.w3.org/2000/01/rdf-schema#label> ?l . \
                  OPTIONAL { ?d <http://drugbank.org/p/targetGene> ?g } \
                  FILTER (CONTAINS(STR(?l), \"drug\"))"),
        ),
        (
            "C4",
            "SELECT * WHERE { \
                 ?f a <http://linkedmdb.org/Film> . \
                 ?f <http://linkedmdb.org/title> ?t . \
                 ?f <http://linkedmdb.org/director> ?dir . \
                 ?dir <http://linkedmdb.org/directorName> ?dn . \
                 ?f <http://www.w3.org/2002/07/owl#sameAs> ?df . \
                 ?df a <http://dbpedia.org/Film> . \
                 ?df <http://www.w3.org/2000/01/rdf-schema#label> ?l } LIMIT 50"
                .to_string(),
        ),
        (
            "C6",
            q("?a a <http://jamendo.org/MusicArtist> . \
                  ?a <http://jamendo.org/name> ?n . \
                  ?a <http://jamendo.org/based_near> ?loc . \
                  ?loc <http://geonames.org/name> ?ln . \
                  { ?loc <http://geonames.org/countryCode> \"US\" } UNION \
                  { ?loc <http://geonames.org/countryCode> \"DE\" } \
                  ?loc <http://geonames.org/population> ?pop . \
                  FILTER (?pop > 1000)"),
        ),
        (
            "C7",
            q("?p a <http://tcga.org/Patient> . \
                  ?p <http://tcga.org/disease> \"OV\" . \
                  ?e <http://tcga.org/exprPatient> ?p . \
                  ?e <http://tcga.org/gene_symbol> ?s . \
                  ?e <http://tcga.org/rpkm> ?r . \
                  FILTER (?r > 80)"),
        ),
        (
            "C8",
            q("?e a <http://nytimes.org/Entity> . \
                  ?e <http://nytimes.org/name> ?n . \
                  ?e <http://www.w3.org/2002/07/owl#sameAs> ?l . \
                  ?l <http://geonames.org/name> ?gn . \
                  ?l <http://geonames.org/countryCode> ?cc . \
                  OPTIONAL { ?l <http://geonames.org/population> ?pop }"),
        ),
        (
            "C9",
            q("?x <http://www.w3.org/2002/07/owl#sameAs> ?y . \
                  ?y <http://www.w3.org/2000/01/rdf-schema#label> ?l . \
                  { ?x a <http://nytimes.org/Entity> } UNION \
                  { ?x a <http://linkedmdb.org/Film> }"),
        ),
        (
            "C10",
            q("?pa a <http://swdf.org/InProceedings> . \
                   ?pa <http://swdf.org/title> ?t . \
                   ?pa <http://swdf.org/author> ?au . \
                   ?au <http://swdf.org/name> ?an . \
                   ?au <http://www.w3.org/2002/07/owl#sameAs> ?dp . \
                   ?dp a <http://dbpedia.org/Person> . \
                   ?dp <http://www.w3.org/2000/01/rdf-schema#label> ?dl"),
        ),
        // ---------------- large ----------------
        (
            "B1",
            q("?m <http://tcga.org/gene_symbol> ?s . \
                  ?m <http://tcga.org/beta_value> ?v . \
                  ?pr <http://affymetrix.org/symbol> ?s . \
                  { ?pr <http://affymetrix.org/chromosome> \"chr1\" } UNION \
                  { ?pr <http://affymetrix.org/chromosome> \"chr2\" }"),
        ),
        (
            "B2",
            q("?p a <http://tcga.org/Patient> . \
                  ?m <http://tcga.org/methPatient> ?p . \
                  ?m <http://tcga.org/gene_symbol> ?s1 . \
                  ?e <http://tcga.org/exprPatient> ?p . \
                  ?e <http://tcga.org/gene_symbol> ?s2 . \
                  ?e <http://tcga.org/rpkm> ?r"),
        ),
        (
            "B3",
            q("?d a <http://drugbank.org/class/drugs> . \
                  ?d <http://drugbank.org/p/genericName> ?n . \
                  ?d <http://drugbank.org/p/keggCompoundId> ?k . \
                  ?k <http://kegg.org/formula> ?f . \
                  ?d <http://www.w3.org/2002/07/owl#sameAs> ?dbp . \
                  ?dbp <http://www.w3.org/2000/01/rdf-schema#label> ?l"),
        ),
        (
            "B4",
            q("?l <http://geonames.org/name> ?n . \
                  ?l <http://geonames.org/countryCode> ?cc . \
                  ?l <http://geonames.org/population> ?pop . \
                  ?e <http://www.w3.org/2002/07/owl#sameAs> ?l . \
                  ?e <http://nytimes.org/name> ?en"),
        ),
        (
            "B7",
            q("?m <http://tcga.org/gene_symbol> ?s . \
                  ?pr <http://affymetrix.org/symbol> ?s . \
                  ?pr <http://affymetrix.org/chromosome> ?c"),
        ),
        (
            "B8",
            q("?x <http://www.w3.org/2002/07/owl#sameAs> ?y . \
                  ?y <http://geonames.org/name> ?n . \
                  ?x <http://nytimes.org/name> ?xn . \
                  OPTIONAL { ?y <http://geonames.org/population> ?pop }"),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_endpoint::SparqlEndpoint;

    #[test]
    fn thirteen_endpoints_match_table_one_names() {
        let w = generate(&LrbConfig::default());
        assert_eq!(w.federation.len(), 13);
        for (i, name) in ENDPOINT_NAMES.iter().enumerate() {
            assert_eq!(w.endpoints[i].name(), *name);
        }
        // TCGA slices are the largest, as in Table I.
        assert!(w.endpoints[0].triple_count() > w.endpoints[11].triple_count());
    }

    #[test]
    fn all_queries_parse_and_have_oracle_answers() {
        let w = generate(&LrbConfig::default());
        assert_eq!(w.queries.len(), 29);
        for nq in &w.queries {
            let sols = lusail_store::eval::evaluate(&w.oracle, &nq.query);
            assert!(!sols.is_empty(), "{} has no oracle answers", nq.name);
        }
    }

    #[test]
    fn large_queries_return_more_rows_than_simple() {
        let w = generate(&LrbConfig::default());
        let avg = |cat: &str| -> f64 {
            let sizes: Vec<usize> = w
                .queries
                .iter()
                .filter(|nq| category(&nq.name) == cat)
                .map(|nq| lusail_store::eval::evaluate(&w.oracle, &nq.query).len())
                .collect();
            sizes.iter().sum::<usize>() as f64 / sizes.len() as f64
        };
        assert!(avg("large") > avg("simple"));
    }

    #[test]
    fn scale_changes_data_size() {
        let small = generate(&LrbConfig {
            scale: 0.5,
            ..Default::default()
        });
        let big = generate(&LrbConfig::default());
        assert!(big.oracle.len() > small.oracle.len());
    }

    #[test]
    fn category_classification() {
        assert_eq!(category("S3"), "simple");
        assert_eq!(category("C9"), "complex");
        assert_eq!(category("B1"), "large");
    }
}
