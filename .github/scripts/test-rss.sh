#!/usr/bin/env bash
# Peak resident memory of every package's test binary, each run alone.
#
# Builds each package's test binary with `go test -c` (no -race), runs it
# from its package directory, polls VmHWM in /proc/PID/status every 0.2 s,
# and prints one row per package. Exits 1 if any binary peaks over
# budget_mb or fails its tests. Linux only; run from the repository root:
#
#	bash .github/scripts/test-rss.sh
set -euo pipefail

budget_mb=1536
bin_dir=$(mktemp -d)
trap 'rm -rf "$bin_dir"' EXIT

status=0
printf '%-36s %8s %8s  %s\n' package peak_mb secs result
while IFS='|' read -r pkg dir; do
	bin="$bin_dir/${pkg//\//_}.test"
	log="$bin.log"
	go test -c -o "$bin" "$pkg"
	start=$(date +%s.%N)
	(cd "$dir" && exec "$bin" -test.timeout=10m >"$log" 2>&1) &
	pid=$!
	peak_kb=0
	while kill -0 "$pid" 2>/dev/null; do
		hwm=$(awk '/^VmHWM:/ {print $2}' "/proc/$pid/status" 2>/dev/null || true)
		if [ -n "$hwm" ] && [ "$hwm" -gt "$peak_kb" ]; then
			peak_kb=$hwm
		fi
		sleep 0.2
	done
	if wait "$pid"; then rc=0; else rc=$?; fi
	secs=$(awk -v s="$start" -v e="$(date +%s.%N)" 'BEGIN { printf "%.1f", e - s }')
	peak_mb=$((peak_kb / 1024))
	result=ok
	if [ "$rc" != 0 ]; then
		result="FAIL (exit $rc)"
		tail -n 30 "$log"
		status=1
	fi
	if [ "$peak_mb" -gt "$budget_mb" ]; then
		result="$result, OVER the ${budget_mb} MB budget"
		status=1
	fi
	printf '%-36s %8d %8s  %s\n' "$pkg" "$peak_mb" "$secs" "$result"
done < <(go list -f '{{if or .TestGoFiles .XTestGoFiles}}{{.ImportPath}}|{{.Dir}}{{end}}' ./...)
exit "$status"
