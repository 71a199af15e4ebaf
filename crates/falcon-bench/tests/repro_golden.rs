//! Every `repro` section in quick mode, its deterministic cells pinned:
//! the rendered tables (wall cells masked) and the shape checks each
//! section passed must equal `goldens/repro.txt`. A section whose shape
//! check fails panics here first, naming the check.
//!
//! To re-record after an intended change, empty the file and run this
//! test: it fails printing the full replacement content.

use falcon_bench::{Mode, SECTIONS};

const GOLDEN: &str = include_str!("goldens/repro.txt");

#[test]
fn quick_sections_match_the_recorded_golden() {
    let recorded: String = (SECTIONS.iter())
        .map(|s| (s.run)(Mode::Quick).render(s.name, false))
        .collect();
    let differs = (recorded.lines().zip(GOLDEN.lines())).position(|(r, g)| r != g);
    assert!(
        recorded == GOLDEN,
        "quick sections differ from goldens/repro.txt (first differing line: {differs:?}); full replacement:\n{recorded}"
    );
}
