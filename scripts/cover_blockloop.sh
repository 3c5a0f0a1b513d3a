#!/bin/sh
# cover_blockloop.sh — fail when a block of the block loop (runBlocks in
# internal/mipsx/translate.go) executes zero times under the fast
# packages' tests. The tests of internal/mipsx and internal/difftest run
# once with -coverpkg=./internal/mipsx in count mode; a block both
# packages leave at zero fails the check unless the allowlist names it.
#
# The allowlist (internal/mipsx/testdata/blockloop_cover_allow.txt) names
# a block by the text of its first statement, so it survives code moving
# around it, and gives the reason that block cannot run under these
# tests: one line per entry, "<statement><TAB><reason>". Used by
# `make cover-blockloop` and the CI check job.
set -eu

cd "$(dirname "$0")/.."
SRC=internal/mipsx/translate.go
ALLOW=internal/mipsx/testdata/blockloop_cover_allow.txt
PROF="${TMPDIR:-/tmp}/blockloop-cover.$$.out"
trap 'rm -f "$PROF"' EXIT

go test -short -count=1 -covermode=count -coverpkg=./internal/mipsx \
    -coverprofile="$PROF" ./internal/mipsx ./internal/difftest >/dev/null

# An allowlist entry without a reason is an error in itself.
if awk -F '\t' 'NF && !/^#/ && (NF < 2 || $2 == "") { print FILENAME ":" NR ": no reason: " $0; bad = 1 } END { exit !bad }' "$ALLOW"; then
    exit 1
fi

# runBlocks' line range.
START=$(grep -n '^func runBlocks' "$SRC" | cut -d: -f1)
END=$(awk -v s="$START" 'NR > s && /^}/ { print NR; exit }' "$SRC")

# Merge the two packages' counts per block, keep runBlocks' blocks that
# read zero, and name each by its first statement: the rest of the line
# the block starts on, or the next non-blank line when that is empty.
awk -v src="$SRC" -v s="$START" -v e="$END" -v allow="$ALLOW" '
    BEGIN {
        FS = "\t"
        while ((getline line < allow) > 0)
            if (line != "" && line !~ /^#/) { split(line, f, "\t"); ok[f[1]] = 1 }
        n = 0
        while ((getline line < src) > 0) text[++n] = line
        FS = " "
    }
    $1 ~ "/" src ":" {
        cnt[$1] += $NF
        split($1, a, ":"); split(a[2], pos, ","); split(pos[1], lc, ".")
        ln[$1] = lc[1]; col[$1] = lc[2]
    }
    END {
        bad = 0
        for (k in cnt) {
            l = ln[k] + 0
            if (cnt[k] != 0 || l < s || l > e) continue
            stmt = substr(text[l], col[k])
            while (stmt ~ /^[ \t{]*$/ && l < n) stmt = text[++l]
            gsub(/^[ \t{]+|[ \t]+$/, "", stmt)
            if (stmt in ok) { printf "allowed: %s:%d %s\n", src, ln[k], stmt; continue }
            printf "never executed: %s:%d %s\n", src, ln[k], stmt
            bad = 1
        }
        exit bad
    }' "$PROF"
