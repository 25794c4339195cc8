#!/bin/sh
# Fail when the compiler fused a multiply and an add in the repo's code.
#
# The Go spec lets a compiler compute x*y + z with one rounding (a fused
# multiply-add), and arm64, ppc64le and riscv64 builds do, so a cost's
# last bit, and with it a clearing, could differ from amd64's. An explicit
# conversion, float64(x*y), rounds the product on every target. This
# check cross-compiles the daemons, and the test binaries of the root
# package and internal/scenario, disassembles them, and lists every
# FMADD/FMSUB/FNMADD/FNMSUB inside a clustermarket function, test code
# included. The standard library is not scanned (math.Exp is fused
# assembly on arm64). It needs no such hardware and no network.
set -eu

GO=${GO:-go}
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

status=0
for arch in arm64 ppc64le riscv64; do
    for cmd in marketd marketsim root.test scenario.test; do
        bin="$OUT/$cmd-$arch"
        case $cmd in
        root.test) GOOS=linux GOARCH="$arch" "$GO" test -c -o "$bin" . ;;
        scenario.test) GOOS=linux GOARCH="$arch" "$GO" test -c -o "$bin" ./internal/scenario ;;
        *) GOOS=linux GOARCH="$arch" "$GO" build -o "$bin" "./cmd/$cmd" ;;
        esac
        # A file, not a pipe: set -e then stops on objdump's failure.
        "$GO" tool objdump "$bin" > "$bin.s"
        # objdump prints "TEXT <symbol> <file>" before each function and
        # "<file:line> <pc> <bytes> <op> <args>" for each instruction. No
        # FMUL read as op in clustermarket code means that layout moved,
        # and no fused op could match either: exit 2.
        rc=0
        awk -v bin="$cmd/$arch" '
            /^TEXT / { fn = $2; next }
            fn !~ /^clustermarket[._\/]/ { next }
            $4 ~ /^FMUL/ { muls++ }
            $4 ~ /^FN?M(ADD|SUB)/ { print bin ": " fn " " $1 ": " $4; n++ }
            END {
                if (!muls) { print bin ": no FMUL read in clustermarket code; has objdump'"'"'s layout changed?"; exit 2 }
                exit n > 0
            }' "$bin.s" || rc=$?
        if [ "$rc" -ne 0 ]; then
            status=1
        fi
    done
done
if [ "$status" -ne 0 ]; then
    echo "fma-check: failed; round each fused product above with float64(x*y)"
    exit 1
fi
echo "fma-check: no fused multiply-add in clustermarket code on arm64, ppc64le, riscv64"
