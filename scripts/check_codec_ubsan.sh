#!/bin/sh
# Build the tree with UndefinedBehaviorSanitizer and run the codec and
# campaign suites. The ECC layer is now table-driven with fixed-capacity
# scratch indexing everywhere, so
#   ctest -L "ecc|campaign|simd"
# under UBSan covers every table lookup, shift and scratch-array access
# the codec kernels perform -- this is the net that catches the
# GF256::div(a, 0) class of bugs (reading an undefined log-table entry)
# at the point of use. The "simd" label adds the dispatch layer and the
# per-level equivalence fuzz, so the AVX-512/NEON intrinsic wrappers
# (detect_simd, the zero-fault filter) run their scalar-visible
# surroundings under the sanitizer at every level the host can
# execute.
#
# Usage: scripts/check_codec_ubsan.sh [build-dir]   (default: build-ubsan)
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build-ubsan"}
jobs=$(nproc 2>/dev/null || echo 2)

cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DXED_SANITIZE=undefined
cmake --build "$build" -j "$jobs" \
    --target test_ecc test_codec_equivalence test_codec_alloc \
    test_simd test_campaign xed_campaign_cli

(cd "$build" && ctest -L "ecc|campaign|simd" --output-on-failure \
    -j "$jobs")

echo "codec UBSan check passed"
