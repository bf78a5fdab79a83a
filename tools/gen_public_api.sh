#!/usr/bin/env bash
# Regenerates schemas/public_api.txt: the declared public API surface of
# every library crate in the workspace. The crate list is derived, not
# written down: the facade (src/) plus every crates/*/src except
# crates/bench. crates/bench is the experiment harness; only its own
# binaries call it, so its surface is not an API anyone else depends on.
#
# The file is a grep-level inventory — one line per `pub` declaration
# and per `#[macro_export]` macro, prefixed with its source file —
# committed to the repository so that CI can fail when the public
# surface drifts without the snapshot (and the docs that go with it)
# being updated deliberately:
#
#     tools/gen_public_api.sh
#     git diff --exit-code schemas/public_api.txt
#
# Declarations inside `#[cfg(test)] mod tests` blocks are not public and
# are excluded by the cutoff below: a file is read up to the first
# column-0 `#[cfg(test)]` directly followed by `mod tests`, the rule
# tools/gen_probes.sh uses. Any other test-only item (say a
# `#[cfg(test)] mod reference;` declared mid-file) does not end the read. Multi-line `pub use {...}`
# groups contribute their opening line only; that is enough for drift
# detection since any edit to the group rewrites that region of the file.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-schemas/public_api.txt}"

surface_of() {
    # Everything above the unit-test module, declaration headers only.
    awk '
        /^#\[cfg\(test\)\]/ { held = 1; next }
        held && /^mod tests/ { exit }
        { held = 0 }
        /^[[:space:]]*#\[macro_export\]/ { exported = 1; next }
        exported && /^[[:space:]]*macro_rules! / {
            line = $0
            sub(/^[[:space:]]+/, "", line)
            sub(/[[:space:]]*\{.*$/, "", line)
            printf "%s: #[macro_export] %s\n", FILENAME, line
            exported = 0
            next
        }
        /^[[:space:]]*#\[/ { next }
        { exported = 0 }
        /^[[:space:]]*pub (fn|struct|enum|trait|mod|type|const|use|static) / {
            line = $0
            sub(/^[[:space:]]+/, "", line)
            sub(/[[:space:]]*\{[^}]*$/, "", line)   # drop trailing open brace / body
            sub(/;[[:space:]]*$/, "", line)
            sub(/[[:space:]]+$/, "", line)
            printf "%s: %s\n", FILENAME, line
        }
    ' "$1"
}

crates=(src)
for dir in crates/*/src; do
    [ "$dir" = crates/bench/src ] || crates+=("$dir")
done

{
    echo "# Public API surface of every library crate: ${crates[*]}."
    echo "# Generated by tools/gen_public_api.sh — do not edit by hand."
    find "${crates[@]}" -name '*.rs' | LC_ALL=C sort | while read -r f; do
        surface_of "$f"
    done
} >"$out"
echo "wrote $out ($(grep -vc '^#' "$out") declarations)" >&2
