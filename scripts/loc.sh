#!/bin/sh
# Non-test line counts, the figure CHANGES.md quotes as "net lines".
#
# A file's non-test lines are its lines up to (not including) its first
# `#[cfg(test)]`; a file without one counts whole. Each crate's count
# covers every `.rs` file under its `src/` (binaries and submodules
# included, its `tests/` directory excluded). The serve crate's files
# are then listed one by one. A report, not a gate: it exits 0.
set -eu

cd "$(dirname "$0")/.."

# Prints the non-test lines of every file named on stdin, summed.
count() {
    total=0
    while IFS= read -r file; do
        n=$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        total=$((total + n))
    done
    echo "$total"
}

echo "== non-test lines per crate (src/ up to the first #[cfg(test)]) =="
for crate in crates/*/; do
    crate=${crate%/}
    printf '%8s  %s\n' "$(find "$crate/src" -name '*.rs' | count)" "$crate/src"
done
printf '%8s  %s\n' "$(find src -name '*.rs' | count)" "src (facade)"

echo "== crates/serve/src by file =="
find crates/serve/src -name '*.rs' | sort | while IFS= read -r file; do
    printf '%8s  %s\n' "$(echo "$file" | count)" "$file"
done
