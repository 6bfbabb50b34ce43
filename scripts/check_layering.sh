#!/usr/bin/env bash
# Layering gate: the libraries under src/ must not depend on bench/. Fails when
# any src/**/CMakeLists.txt names tsg_bench_util or any file under src/
# includes bench_util.h — the grid engine lives in src/grid for that reason.
#
# Usage: scripts/check_layering.sh [repo_root]   (default: the script's repo)

set -euo pipefail

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
SRC="$ROOT/src"
if [[ ! -d "$SRC" ]]; then
  echo "error: $SRC not found" >&2
  exit 1
fi

status=0
if grep -rn --include=CMakeLists.txt 'tsg_bench_util' "$SRC"; then
  echo "error: a src/ CMakeLists.txt links tsg_bench_util (src/ must not depend on bench/)" >&2
  status=1
fi
if grep -rnE '#[[:space:]]*include[[:space:]]*[<"]([^">]*/)?bench_util\.h[">]' "$SRC"; then
  echo "error: a file under src/ includes bench_util.h (src/ must not depend on bench/)" >&2
  status=1
fi
if [[ "$status" -eq 0 ]]; then
  echo "layering OK: nothing under src/ depends on bench/"
fi
exit "$status"
