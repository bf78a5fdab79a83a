#!/usr/bin/env bash
# Regenerates schemas/probes.txt: every probe name the library crates
# register, with its kind and its first reader. The crate list is the one
# tools/gen_public_api.sh uses: the facade (src/) plus every
# crates/*/src except crates/bench.
#
# A probe is worth its atomic add or clock read only while something
# outside the library reads it by full name. The readers, searched in
# this order:
#
#   tests/*.rs, crates/*/tests/*.rs   tier-1 and crate integration tests
#   crates/bench/src                  experiment bins and `validate`
#   benchmark/src                     the regression benchmark
#   tools/*/src                       alvc-trace
#   BENCHMARK.json                    a `per_layer` name, prefixed `alvc_`
#
# Comment lines and unit-test modules (a column-0 `mod tests` and the
# `#[cfg(test)]` above it) count neither as a registration nor as a
# reader, so a doc example or a test fixture cannot keep a probe alive.
# Exits non-zero, naming them, when a registered name has no reader:
#
#     tools/gen_probes.sh
#     git diff --exit-code schemas/probes.txt
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-schemas/probes.txt}"

# Source above the unit-test module, comment lines dropped.
code_of() {
    awk '
        /^#\[cfg\(test\)\]/ { held = $0; next }
        /^mod tests/ { exit }
        held != "" { print held; held = "" }
        !/^[[:space:]]*\/\// { print }
    ' "$1"
}

crates=(src)
for dir in crates/*/src; do
    [ "$dir" = crates/bench/src ] || crates+=("$dir")
done

# "<kind> <name> <file>" per registration: a counter!/histogram!/span!
# call, or a counter/histogram(_with) call, whose first argument is the
# name literal.
registrations=$(
    find "${crates[@]}" -name '*.rs' | LC_ALL=C sort | while read -r f; do
        code_of "$f" | perl -0777 -ne '
            while (/\b(counter|histogram|span)(?:!|_with)?\(\s*"(alvc_[a-z0-9_]+\.[a-z0-9_.]+)"/g) {
                print "$1 $2 '"$f"'\n";
            }'
    done
)

readers=$(
    find tests crates/*/tests -maxdepth 1 -name '*.rs' | LC_ALL=C sort
    for dir in crates/bench/src benchmark/src tools/*/src; do
        find "$dir" -name '*.rs' | LC_ALL=C sort
    done
)
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
for f in $readers; do
    mkdir -p "$scratch/$(dirname "$f")"
    code_of "$f" >"$scratch/$f"
done
per_layer=$(perl -ne '$seen ||= /"per_layer"/; print "alvc_$1\n" if $seen && /"name":\s*"([a-z0-9_.]+)"/' \
    BENCHMARK.json)

first_reader() {
    local pattern="(^|[^a-z0-9_.])${1//./\\.}([^a-z0-9_.]|\$)"
    for f in $readers; do
        if grep -qE "$pattern" "$scratch/$f"; then
            echo "$f"
            return
        fi
    done
    if grep -qxF "$1" <<<"$per_layer"; then
        echo BENCHMARK.json
    fi
}

unread=0
{
    echo "# Every probe the library crates register: kind, name, first reader."
    echo "# Generated by tools/gen_probes.sh — do not edit by hand."
    while read -r kind name file; do
        reader=$(first_reader "$name")
        if [ -z "$reader" ]; then
            echo "unread probe: $kind $name (registered in $file)" >&2
            unread=$((unread + 1))
            reader=-
        fi
        echo "$kind $name $reader"
    done < <(LC_ALL=C sort -k2,2 -u <<<"$registrations")
} >"$out"
echo "wrote $out ($(grep -vc '^#' "$out") probes, $unread unread)" >&2
[ "$unread" -eq 0 ]
