#!/usr/bin/env bash
# soak.sh '<-run regex>' <go test flags and packages...>
#
# Runs `go test -run <regex>` with the given flags, but first fails if the
# regex — or any one of its top-level |-alternatives — selects no test in
# the given packages: a soak job that picks its tests by name would
# otherwise turn green with zero tests the day one is renamed.
set -euo pipefail

pattern=$1
shift
pkgs=()
for arg in "$@"; do
	case $arg in
	-*) ;;
	*) pkgs+=("$arg") ;;
	esac
done

alternatives=("$pattern")
case $pattern in
*'('*) ;; # grouped regex: only the whole pattern can be checked
*) IFS='|' read -r -a alternatives <<<"$pattern" ;;
esac
# One listing for the whole pattern; each alternative must then find a
# name in it (-list and grep -E both match unanchored).
listed=$(go test -list "$pattern" "${pkgs[@]}" | grep -E '^(Test|Fuzz|Example)' || true)
for alt in "${alternatives[@]}"; do
	matched=$(grep -c -E -- "$alt" <<<"$listed" || true)
	if [ "$matched" -eq 0 ]; then
		echo "soak: -run '$alt' selects no test in ${pkgs[*]}" >&2
		exit 1
	fi
	echo "soak: -run '$alt' selects $matched test(s) in ${pkgs[*]}"
done
exec go test -run "$pattern" "$@"
