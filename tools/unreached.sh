#!/bin/sh
# Reachability audit: prints the mtsched:: functions that the libmtsched_*.a
# archives define but that no tool, bench, example or perfbench binary
# contains. Two passes build everything at -O0 with per-function sections
# and --gc-sections, so a binary keeps only what it can reach; the second
# pass adds -fkeep-inline-functions so that header-defined members are
# audited too. Special members (constructors, destructors, assignment), the
# function-pointer conversions of captureless lambdas and std::
# instantiations are left out.
#
#   tools/unreached.sh [work-dir]    # default work dir: a fresh mktemp -d
#
# CI diffs the output against tools/unreached.allow.
set -eu
export LC_ALL=C
root=$(cd "$(dirname "$0")/.." && pwd)
work=${1:-$(mktemp -d)}

defined() {  # demangled text symbols defined in the given files
  nm -C --defined-only "$@" 2>/dev/null | sed -n 's/^[0-9a-f]* [TtWw] //p'
}

for pass in plain inline; do
  flags="-O0 -ffunction-sections -fdata-sections"
  [ $pass = inline ] && flags="$flags -fkeep-inline-functions"
  for proj in main perfbench; do
    src=$root; [ $proj = perfbench ] && src=$root/perfbench
    cmake -S "$src" -B "$work/$pass/$proj" --no-warn-unused-cli \
      -DBUILD_TESTING=OFF -DCMAKE_BUILD_TYPE=None -DCMAKE_CXX_FLAGS="$flags" \
      -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
    cmake --build "$work/$pass/$proj" -j "$(nproc)" >/dev/null
  done
  defined $(find "$work/$pass" -type f -perm -u+x ! -path '*/CMakeFiles/*') |
    sort -u >"$work/$pass.reached"
  defined $(find "$work/$pass/main/src" -name 'libmtsched_*.a') | sort -u |
    comm -23 - "$work/$pass.reached" >"$work/$pass.unreached"
done
cat "$work/plain.unreached" "$work/inline.unreached" | grep '^mtsched::' |
  grep -Ev '::([A-Za-z_][A-Za-z_0-9]*)(<[^()]*>)?::~?\1\(|::operator=\(' |
  grep -Ev '^[^(]* (std|__gnu_cxx)::|\}::_FUN\(|\}::operator ' |
  sort -u
