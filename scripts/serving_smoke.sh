#!/usr/bin/env bash
# Loopback smoke for the serving front end: start a real serverd process,
# drive it with a real `repl --connect` session over TCP, and assert on the
# replies — the end-to-end path a unit test can't cover (two processes, real
# sockets, signal-driven shutdown).
#
# Usage: scripts/serving_smoke.sh [build-dir]   (default: build)
set -euo pipefail
build="${1:-build}"
tmp="$(mktemp -d)"
server_pid=""
trap '[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

cat > "$tmp/init.sql" <<'EOF'
CREATE TABLE T (PK INT, V INT);
INSERT INTO T VALUES (1, 10), (2, 20), (3, 30);
CREATE UNIQUE INDEX T_PK ON T (PK);
UPDATE STATISTICS T;
CREATE TABLE S (K STRING, N INT);
INSERT INTO S VALUES ('it''s', -7), ('it''s', -7);
EOF

"$build/tools/serverd" --port 0 --port-file "$tmp/port" \
  --init "$tmp/init.sql" &
server_pid=$!
for _ in $(seq 100); do [ -s "$tmp/port" ] && break; sleep 0.1; done
[ -s "$tmp/port" ] || { echo "serverd never wrote its port"; exit 1; }

cat > "$tmp/smoke.sql" <<'EOF'
SELECT V FROM T WHERE PK = 2;
PREPARE pt AS SELECT V FROM T WHERE PK = ?;
EXECUTE pt (3);
PREPARE ps AS SELECT N FROM S WHERE K = ?;
EXECUTE ps ('it''s');
PREPARE pn AS SELECT K FROM S WHERE N = ?;
EXECUTE pn (-7);
BEGIN;
INSERT INTO T VALUES (4, 40);
COMMIT;
SELECT COUNT(*) FROM T;
EXPLAIN SELECT V FROM T WHERE PK = 2;
\stats
\quit
EOF

"$build/tools/repl" --connect ":$(cat "$tmp/port")" < "$tmp/smoke.sql" \
  | tee "$tmp/smoke.out"

grep -q '^20$\|| *20' "$tmp/smoke.out"          # point lookup answer
grep -q '^30$\|| *30' "$tmp/smoke.out"          # prepared-statement answer
# EXECUTE lists lex like SQL: a quoted quote, and a negative INT.
[ "$(grep -c '| -7 ' "$tmp/smoke.out")" -eq 2 ]
[ "$(grep -c "| 'it's' " "$tmp/smoke.out")" -eq 2 ]
grep -q '^4$\|| *4'  "$tmp/smoke.out"           # COUNT(*) after the insert
grep -q '\[cost=' "$tmp/smoke.out"               # EXPLAIN's plan line
grep -q 'statements:.*admitted=' "$tmp/smoke.out"  # \stats over the wire

# Local mode runs every statement through its session and prints each
# result by the kind that ran. A result's row count shows once: the table's
# "(1 row)" line, not again on the stats line below it.
cat "$tmp/init.sql" - > "$tmp/local.sql" <<'EOF'
SELECT V FROM T WHERE PK = 2;
PREPARE ps AS SELECT N FROM S WHERE K = ?;
EXECUTE ps ('it''s');
PREPARE pn AS SELECT K FROM S WHERE N = ?;
EXECUTE pn (-7);
BEGIN;
INSERT INTO T VALUES (4, 40);
COMMIT;
EXPLAIN SELECT V FROM T WHERE PK = 4;
ROLLBACK;
UPDATE STATISTICS T;
EOF
"$build/tools/repl" --script "$tmp/local.sql" | tee "$tmp/local.out"
[ "$(grep -c '(1 row)' "$tmp/local.out")" -eq 1 ]
[ "$(grep -c '| -7 ' "$tmp/local.out")" -eq 2 ]
[ "$(grep -c "| 'it's' " "$tmp/local.out")" -eq 2 ]
grep -qx 'begin' "$tmp/local.out"
grep -qx '1 row' "$tmp/local.out"                # the INSERT's count
grep -qx 'commit' "$tmp/local.out"
grep -q '\[cost=' "$tmp/local.out"               # EXPLAIN's plan line
grep -q '^error: .*ROLLBACK outside a transaction' "$tmp/local.out"
[ "$(tail -n 1 "$tmp/local.out")" = ok ]          # UPDATE STATISTICS

# Graceful shutdown: SIGTERM must drain and exit 0, printing final stats.
kill -TERM "$server_pid"
wait "$server_pid"
server_pid=""
echo "serving smoke: OK"
