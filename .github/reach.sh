#!/usr/bin/env bash
# Reachability checks over one root set: every cmd/ and examples/ binary,
# the perfbench module (its own module, `replace holmes => ../`), and the
# root facade `holmes`.
#
#   bash .github/reach.sh packages   # internal packages no root reaches
#   bash .github/reach.sh funcs      # non-test funcs no root binary links
#
# `funcs` builds every root with inlining off (-gcflags=all=-l), plus a main
# generated into a temp module that references every exported root
# function, and diffs `go tool nm` against the non-test `func` declarations
# of the holmes module. Generic functions and methods on generic types are
# skipped: the linker names their instantiations, not the declarations. A
# function of a main package must be linked by its own binary.
set -euo pipefail

cd "$(dirname "$0")/.."

# Functions no root binary links that stay in non-test code, because tests
# in another package call them and a _test.go file cannot serve them.
allow() {
	cat <<'EOF'
holmes/internal/fleet.(*FakeClock).Advance      # internal/api tests: events_test, operator_test
holmes/internal/fleet.(*FakeClock).Set          # fleet.(*FakeClock).Advance
holmes/internal/netsim.(*Fabric).InFlight       # internal/scenario tests: differential_test
holmes/internal/netsim.(*Fabric).NodeBandwidth  # internal/scenario tests: scenario_test
holmes/internal/netsim.(*Fabric).TransferTime   # internal/scenario tests: backend_test
holmes/internal/netsim.(*Fabric).ImpairmentOf   # internal/scenario tests: backend_test
EOF
}

packages() {
	local dead
	dead=$(comm -23 <(go list ./internal/... | sort) \
		<( { go list -deps ./cmd/... ./examples/... .; (cd perfbench && go list -deps .); } |
			grep '^holmes/internal/' | sort -u))
	if [ -n "$dead" ]; then
		echo "internal packages no binary, example, perfbench or the facade reaches:"
		echo "$dead"
		return 1
	fi
	echo "every internal package is reachable"
}

funcs() {
	local tmp
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' RETURN
	mkdir -p "$tmp/bin" "$tmp/rootref"

	# A main that references every exported function of the root facade.
	local root
	root=$(pwd)
	printf 'module rootref\n\ngo 1.24\n\nrequire holmes v0.0.0\n\nreplace holmes => %s\n' "$root" >"$tmp/rootref/go.mod"
	{
		echo 'package main'
		echo
		echo 'import ('
		echo '	"fmt"'
		echo
		echo '	"holmes"'
		echo ')'
		echo
		echo 'var roots = []any{'
		go list -f '{{range .GoFiles}}{{$.Dir}}/{{.}}{{"\n"}}{{end}}' . |
			xargs sed -n 's/^func \([A-Z][A-Za-z0-9_]*\)(.*/	holmes.\1,/p'
		echo '}'
		echo
		echo 'func main() { fmt.Println(len(roots), roots) }'
	} >"$tmp/rootref/main.go"

	local pkg name
	while read -r pkg; do
		name=${pkg//\//_}
		go build -gcflags=all=-l -o "$tmp/bin/$name" "$pkg"
	done < <(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/...)
	(cd perfbench && go build -gcflags=all=-l -o "$tmp/bin/perfbench" .)
	(cd "$tmp/rootref" && go build -gcflags=all=-l -o "$tmp/bin/rootref" .)

	# Every text symbol, once bare and once as "<binary>:<symbol>".
	for bin in "$tmp"/bin/*; do
		go tool nm "$bin" | awk -v b="${bin##*/}" '$2 == "T" || $2 == "t" { print $3; print b ":" $3 }'
	done | sort -u >"$tmp/linked"

	# "<import path>|<package name>|<file>" for each non-test Go file.
	go list -f '{{range .GoFiles}}{{$.ImportPath}}|{{$.Name}}|{{$.Dir}}/{{.}}{{"\n"}}{{end}}' ./... |
		grep -v '^$' >"$tmp/files"

	# "<symbol> <file:line>" for each non-generic func declaration. A main
	# package's symbol is "<binary>:main.<name>" so it is matched against its
	# own binary only.
	local path pname file prefix
	while IFS='|' read -r path pname file; do
		if [ "$pname" = main ]; then
			prefix="${path//\//_}:main"
		else
			prefix=$path
		fi
		awk -v prefix="$prefix" -v rel="${file#"$root"/}" '
			/^func / {
				line = substr($0, 6)
				recv = ""
				if (substr(line, 1, 1) == "(") {
					recv = substr(line, 2, index(line, ")") - 2)
					line = substr(line, index(line, ")") + 2)
				}
				name = line
				sub(/[[(].*/, "", name)
				if (substr(line, length(name) + 1, 1) == "[") next
				if (recv == "" && (name == "init" || name == "_")) next
				sym = name
				if (recv != "") {
					if (recv ~ /\[/) next
					n = split(recv, parts, " ")
					t = parts[n]
					sym = (t ~ /^\*/) ? "(" t ")." name : t "." name
				}
				print prefix "." sym, rel ":" FNR
			}' "$file"
	done <"$tmp/files" >"$tmp/decls"

	allow | awk '{ print $1 }' | sort -u >"$tmp/allow"
	awk 'FNR == NR { seen[$1] = 1; next } !($1 in seen)' <(sort -u "$tmp/linked" "$tmp/allow") "$tmp/decls" |
		sort >"$tmp/unlinked"

	# An allowlist entry that is linked, or no longer declared, is stale.
	local stale
	stale=$( { comm -12 "$tmp/allow" "$tmp/linked"; comm -23 "$tmp/allow" <(awk '{ print $1 }' "$tmp/decls" | sort -u); } )

	local n
	n=$(wc -l <"$tmp/decls")
	if [ -s "$tmp/unlinked" ] || [ -n "$stale" ]; then
		if [ -s "$tmp/unlinked" ]; then
			echo "functions no binary, example, perfbench or the facade links:"
			cat "$tmp/unlinked"
		fi
		if [ -n "$stale" ]; then
			echo "stale allowlist entries (linked, or not declared):"
			echo "$stale"
		fi
		return 1
	fi
	echo "$n non-generic functions: all linked but $(wc -l <"$tmp/allow") allowlisted"
}

case "${1:-}" in
packages) packages ;;
funcs) funcs ;;
*)
	echo "usage: $0 packages|funcs" >&2
	exit 2
	;;
esac
