//! # relpat-eval — evaluation harness
//!
//! Runs the QA pipeline over the QALD-2-style benchmark and reproduces the
//! paper's Table 2 (precision / recall / F1 over the 55 DBpedia-only
//! questions), plus the ablation sweeps DESIGN.md calls for.
//!
//! ```no_run
//! use relpat_eval::run_benchmark;
//! use relpat_kb::{generate, qald_questions, KbConfig};
//! use relpat_qa::Pipeline;
//!
//! let kb = generate(&KbConfig::default());
//! let pipeline = Pipeline::new(&kb);
//! let report = run_benchmark(&pipeline, &qald_questions(&kb));
//! println!("{}", report.table2());
//! ```

mod ablation;
mod metrics;
mod runner;
mod strategy;

pub use ablation::{ablation_suite, ablation_table, run_ablations, run_selected, Ablation, AblationResult};
pub use metrics::Counts;
pub use runner::{judge, run_benchmark, ErrorAnalysis, QuestionResult, Report};
pub use strategy::{run_strategy_comparison, strategy_table, StrategyResult};
