#!/usr/bin/env bash
# Same bits: run `fracprey reproduce` from a git ref and from this checkout,
# and compare what the two wrote.
#
#   tools/samebits.sh [REF]
#
# REF (default HEAD) is unpacked with git archive into a temporary directory:
# no worktree, no network.  Each tree runs `python3 -m fracprey.cli reproduce`
# from its own src/, in a fresh process with the same environment.  The two
# stamped directories are compared file by file, stdout without its first
# line (the output path), and the exit statuses.  Prints "identical", or the
# name of each output that differs and exits 1.  Run it from anywhere inside
# the repository; the temporary directories are removed on exit.
set -eo pipefail
if [ "$#" -gt 1 ]; then
  echo "usage: $0 [REF]" >&2
  exit 2
fi
ref="${1:-HEAD}"
root="$(git rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/tree"
git -C "$root" archive "$ref" | tar -x -C "$tmp/tree"
dirs=()
for side in ref work; do
  if [ "$side" = ref ]; then src="$tmp/tree/src"; else src="$root/src"; fi
  status=0
  (cd "$src" && python3 -m fracprey.cli reproduce --output "$tmp/$side") > "$tmp/$side.stdout" || status=$?
  echo "$status" > "$tmp/$side.status"
  tail -n +2 "$tmp/$side.stdout" > "$tmp/$side.report"
  set -- "$tmp/$side"/reproduce-*
  if [ ! -d "$1" ]; then
    echo "reproduce from $src wrote no directory (exit status $status)" >&2
    exit 1
  fi
  dirs+=("$1")
done

differ=()
for name in $( (ls "${dirs[0]}"; ls "${dirs[1]}") | sort -u); do
  cmp -s "${dirs[0]}/$name" "${dirs[1]}/$name" || differ+=("$name")
done
cmp -s "$tmp/ref.report" "$tmp/work.report" || differ+=("stdout")
cmp -s "$tmp/ref.status" "$tmp/work.status" || differ+=("exit status")

if [ "${#differ[@]}" -eq 0 ]; then
  echo "identical"
  exit 0
fi
echo "differ from $ref:"
printf '  %s\n' "${differ[@]}"
exit 1
