#!/bin/sh
# Byte-identity of the SIMD batch kernels across dispatch levels
# (DESIGN.md section 4i): build with -march=native so the compiler
# has every excuse to diverge, then prove that XED_SIMD=scalar and the
# native (detected) level produce byte-identical results. The level
# "native" resolved to is printed from `xed_campaign version`; on a
# host without a vector path (x86-64 without AVX-512) it is scalar,
# and the run says that no vector kernel was compared.
#
#   1. the "simd" + "ecc" ctest suites (per-level fuzz, forced through
#      the real dispatch) and the "golden" suites (fig07/table2 stdout
#      vs the committed pre-SIMD fixtures, fig11-14 stdout) pass under
#      BOTH levels -- so every bench a golden test runs is built below;
#   2. the fig07 and table2 stdout captures from the two levels are
#      cmp-identical to each other and to the committed fixtures;
#   3. a full campaign run produces cmp-identical JSONL stores.
#
# Usage: scripts/check_simd.sh [build-dir]   (default: build-native)
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build-native"}
jobs=$(nproc 2>/dev/null || echo 2)
work="$build/check_simd"

cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-march=native
cmake --build "$build" -j "$jobs" \
    --target test_simd test_codec_equivalence test_codec_alloc \
    test_ecc fig07_xed_reliability table2_detection_rates \
    fig11_exec_time fig12_memory_power fig13_alternatives fig14_lotecc \
    xed_campaign_cli

mkdir -p "$work"

# The level the kernels dispatch on without an override, from the
# build.simd block of the version record.
native=$( (unset XED_SIMD || true
    "$build/src/campaign/xed_campaign" version) |
    sed -n 's/.*"simd":{"level":"\([a-z0-9]*\)".*/\1/p')
if [ -z "$native" ]; then
    echo "check_simd: no simd level in 'xed_campaign version'" >&2
    exit 1
fi
echo "check_simd: native resolves to $native"
if [ "$native" = scalar ]; then
    echo "check_simd: this host has no vector path; scalar is compared" \
        "with itself and no vector kernel was compared"
fi

# Sanity: an unparseable override must fail loudly, not fall back.
if XED_SIMD=bogus "$build/tests/test_simd" >/dev/null 2>&1; then
    echo "check_simd: XED_SIMD=bogus was silently accepted" >&2
    exit 1
fi

for level in scalar native; do
    if [ "$level" = scalar ]; then
        export XED_SIMD=scalar
    else
        unset XED_SIMD || true
    fi
    echo "== ctest (simd|ecc|golden) at level: $level"
    (cd "$build" && ctest -L "simd|ecc|golden" --output-on-failure \
        -j "$jobs")

    XED_MC_SYSTEMS=20000 XED_MC_THREADS=4 \
        "$build/bench/fig07_xed_reliability" > "$work/fig07.$level.txt"
    XED_TRIALS=20000 \
        "$build/bench/table2_detection_rates" > "$work/table2.$level.txt"

    rm -f "$work/store.$level.jsonl" \
        "$work/store.$level.jsonl.telemetry.jsonl"
    "$build/src/campaign/xed_campaign" run "$repo/specs/smoke.json" \
        --out "$work/store.$level.jsonl" --quiet

    # A table2 campaign store per level: the detection path through
    # the campaign runner must also be level-invariant.
    rm -f "$work/table2store.$level.jsonl" \
        "$work/table2store.$level.jsonl.telemetry.jsonl"
    XED_TRIALS=20000 "$build/src/campaign/xed_campaign" run \
        "$repo/specs/table2.json" \
        --out "$work/table2store.$level.jsonl" --quiet
done

# Byte-for-byte: scalar vs native, and both vs the committed fixtures.
cmp "$work/fig07.scalar.txt" "$work/fig07.native.txt"
cmp "$work/table2.scalar.txt" "$work/table2.native.txt"
cmp "$work/fig07.scalar.txt" "$repo/tests/golden/fig07_20000.txt"
cmp "$work/table2.scalar.txt" "$repo/tests/golden/table2_20000.txt"
cmp "$work/store.scalar.jsonl" "$work/store.native.jsonl"
cmp "$work/table2store.scalar.jsonl" "$work/table2store.native.jsonl"

echo "SIMD byte-identity check passed (scalar == native ($native) == fixtures)"
