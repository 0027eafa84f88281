#!/usr/bin/env bash
# Crash-torture harness: repeatedly SIGKILLs the ingestion pipeline at a
# seeded random WAL/checkpoint/recovery crash point, restarts it, and runs
# the recovery referee (netmark torture-verify) after every kill. A seed
# passes when the corpus drains with zero torn, mismatched, or missing
# documents after every single crash.
#
# usage: crash_torture.sh NETMARK_BIN SEED [DOCS]
#
# The kill schedule is fully determined by SEED, so a failing seed replays
# exactly in CI and locally.
set -u

BIN=${1:?usage: crash_torture.sh NETMARK_BIN SEED [DOCS]}
SEED=${2:?usage: crash_torture.sh NETMARK_BIN SEED [DOCS]}
DOCS=${3:-24}

WORK=$(mktemp -d "${TMPDIR:-/tmp}/netmark_torture.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

# Crash points spanning the whole durability surface: the commit append and
# fsync, both checkpoint phases, log truncation, and recovery itself (a
# crash *during* recovery must also recover).
POINTS=(
  wal_before_append
  wal_after_append
  wal_after_commit_sync
  checkpoint_after_flush
  checkpoint_before_truncate
  wal_before_truncate
  wal_after_truncate
  recovery_page_applied
  recovery_before_truncate
)

# Deterministic PRNG (LCG) so the kill schedule is a pure function of SEED.
STATE=$((SEED + 0x9E3779B9))
rand() { # rand N -> [0, N)
  STATE=$(( (STATE * 6364136223846793005 + 1442695040888963407) & 0x7FFFFFFFFFFFFFFF ))
  echo $(( (STATE >> 17) % $1 ))
}

run_verify() {
  "$BIN" torture-verify --data "$WORK/data" --drop "$WORK/drop"
}

"$BIN" torture-gen --drop "$WORK/drop" --count "$DOCS" --seed "$SEED" || exit 1

MAX_ROUNDS=60
round=0
while :; do
  round=$((round + 1))
  if [ "$round" -gt "$MAX_ROUNDS" ]; then
    echo "crash_torture: corpus did not drain in $MAX_ROUNDS rounds" >&2
    exit 1
  fi
  point=${POINTS[$(rand ${#POINTS[@]})]}
  after=$(( $(rand 6) + 1 ))
  echo "--- round $round: SIGKILL at ${point} (hit ${after})"
  # Small checkpoint trigger so automatic checkpoints (and their crash
  # points) actually fire within a tiny corpus.
  NETMARK_CRASH_POINT=$point NETMARK_CRASH_AFTER=$after \
    "$BIN" torture-ingest --data "$WORK/data" --drop "$WORK/drop" \
      --checkpoint-bytes 65536
  rc=$?
  if ! run_verify; then
    echo "crash_torture: VERIFY FAILED after round $round (seed $SEED, ${point}/${after})" >&2
    exit 1
  fi
  [ "$rc" -eq 0 ] && break  # drained before the kill point fired
done

# One guaranteed-clean pass: whatever the last kill left behind must drain
# and still verify.
"$BIN" torture-ingest --data "$WORK/data" --drop "$WORK/drop" \
  --checkpoint-bytes 65536 >/dev/null || exit 1
if ! run_verify; then
  echo "crash_torture: FINAL VERIFY FAILED (seed $SEED)" >&2
  exit 1
fi
echo "crash_torture: seed $SEED passed ($round rounds)"
