//! Pins every seeded table of EXPERIMENTS.md byte for byte.
//!
//! Each experiment id renders its tables and compares them with
//! `tests/golden/<id>.txt`. On a mismatch the test names the first
//! differing line and writes the fresh rendering under
//! `CARGO_TARGET_TMPDIR/golden/`; when the change is intended, accepting
//! it is the `cp` the failure message prints.

use std::fs;
use std::path::{Path, PathBuf};

use grandma_bench::experiments::DETERMINISTIC;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check(id: &str) {
    let (_, render) = DETERMINISTIC
        .iter()
        .find(|(key, _)| *key == id)
        .unwrap_or_else(|| panic!("no experiment {id}"));
    let fresh = render();
    let golden_path = golden_dir().join(format!("{id}.txt"));
    let golden = fs::read_to_string(&golden_path).unwrap_or_default();
    if fresh == golden {
        return;
    }
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    fs::create_dir_all(&out_dir).expect("create the fresh-rendering directory");
    let fresh_path = out_dir.join(format!("{id}.txt"));
    fs::write(&fresh_path, &fresh).expect("write the fresh rendering");
    let (golden_lines, fresh_lines): (Vec<&str>, Vec<&str>) =
        (golden.lines().collect(), fresh.lines().collect());
    let line = (0..golden_lines.len().max(fresh_lines.len()))
        .find(|&i| golden_lines.get(i) != fresh_lines.get(i))
        .unwrap_or(golden_lines.len());
    panic!(
        "{id} differs from {} at line {}:\n  golden: {:?}\n  fresh:  {:?}\n\
         if the change is intended, accept it with\n  cp {} {}",
        golden_path.display(),
        line + 1,
        golden_lines.get(line),
        fresh_lines.get(line),
        fresh_path.display(),
        golden_path.display(),
    );
}

macro_rules! golden_tests {
    ($($name:ident => $id:literal,)*) => {
        $(
            #[test]
            fn $name() {
                check($id);
            }
        )*

        #[test]
        fn every_experiment_has_a_golden_test_and_file() {
            let tested = [$($id),*];
            let ids: Vec<&str> = DETERMINISTIC.iter().map(|(id, _)| *id).collect();
            assert_eq!(ids, tested, "add a golden test for every experiment id");
            let mut files: Vec<String> = fs::read_dir(golden_dir())
                .expect("golden directory")
                .map(|e| e.expect("directory entry").file_name().to_string_lossy().into_owned())
                .collect();
            files.sort();
            let mut expected: Vec<String> = ids.iter().map(|id| format!("{id}.txt")).collect();
            expected.sort();
            assert_eq!(files, expected, "one golden file per experiment id, no strays");
        }
    };
}

golden_tests! {
    e1_figure9 => "E1",
    e2_figure10 => "E2",
    e3_figure8 => "E3",
    e6_operating_point => "E6",
    e7_pipeline_illustration => "E7",
    a1_bias_and_tweaks => "A1",
    a2_move_threshold => "A2",
    a3_training_size => "A3",
    a4_phase_modes => "A4",
    s5_group_direction => "S5",
    a5_rejection => "A5",
    a6_feature_ablation => "A6",
    b1_template_baseline => "B1",
}
