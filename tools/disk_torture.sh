#!/usr/bin/env bash
# Disk-fault torture harness: runs the ingestion pipeline against a storage
# Env that injects seeded disk faults (EIO, ENOSPC, failed fsync, torn page
# writes) and then corrupts pages at rest, verifying after every phase that
#   - no acknowledged document is ever lost or silently altered,
#   - a failed WAL fsync is never followed by an ack (fail-stop: the store
#     latches read-only degraded mode, torture-ingest exits 3),
#   - at-rest corruption is *detected* (checksum quarantine via scrub or
#     open-time verification), never served as a truncated document —
#     a flipped byte (phase C) and a zeroed sector (phase D) alike.
#
# usage: disk_torture.sh NETMARK_BIN SEED [DOCS]
#
# The fault schedule is a pure function of SEED, so a failing seed replays
# exactly in CI and locally (same contract as crash_torture.sh).
set -u

BIN=${1:?usage: disk_torture.sh NETMARK_BIN SEED [DOCS]}
SEED=${2:?usage: disk_torture.sh NETMARK_BIN SEED [DOCS]}
DOCS=${3:-24}

WORK=$(mktemp -d "${TMPDIR:-/tmp}/netmark_disk.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

# Deterministic PRNG (LCG), identical to crash_torture.sh.
STATE=$((SEED + 0x9E3779B9))
rand() { # rand N -> [0, N)
  STATE=$(( (STATE * 6364136223846793005 + 1442695040888963407) & 0x7FFFFFFFFFFFFFFF ))
  echo $(( (STATE >> 17) % $1 ))
}

fail() {
  echo "disk_torture: $1 (seed $SEED)" >&2
  exit 1
}

ingest() { # ingest DATA DROP -> torture-ingest exit code
  "$BIN" torture-ingest --data "$1" --drop "$2" \
    --checkpoint-bytes "${3:-65536}"
}

# --- Phase A: sticky write-path fault must fail-stop, never lose an ack. ---
# After the Nth matching op every write (or every fsync) fails; the store
# must latch degraded mode and refuse further mutations. Exit 0 means the
# corpus drained before the fault fired (large nth) — equally fine.
KINDS=(write_eio write_enospc fsync_fail)
kind=${KINDS[$(rand 3)]}
if [ "$kind" = fsync_fail ]; then nth=$(( $(rand 6) + 1 )); else nth=$(( $(rand 70) + 10 )); fi
echo "--- phase A: NETMARK_DISK_FAULT=${kind}:${nth}"
"$BIN" torture-gen --drop "$WORK/a_drop" --count "$DOCS" --seed "$SEED" >/dev/null || exit 1
NETMARK_DISK_FAULT="${kind}:${nth}" ingest "$WORK/a_data" "$WORK/a_drop"
rc=$?
case "$rc" in
  0|3) ;;          # drained clean, or fail-stopped into degraded mode
  1) ;;            # fault fired inside the very first Open; nothing acked yet
  *) fail "phase A: unexpected torture-ingest exit $rc (${kind}:${nth})" ;;
esac
if [ "$rc" -ne 1 ]; then
  # Acked set at fail-stop time must already be intact and readable.
  "$BIN" torture-verify --data "$WORK/a_data" --drop "$WORK/a_drop" >/dev/null \
    || fail "phase A: VERIFY FAILED after ${kind}:${nth} (rc $rc)"
fi
# The fault is gone (fresh process, no NETMARK_DISK_FAULT): deferred files
# must drain and everything must verify.
ingest "$WORK/a_data" "$WORK/a_drop" >/dev/null \
  || fail "phase A: clean drain failed after ${kind}:${nth}"
"$BIN" torture-verify --data "$WORK/a_data" --drop "$WORK/a_drop" \
  || fail "phase A: FINAL VERIFY FAILED after ${kind}:${nth}"

# --- Phase B: torn page write (garbled first half synced to disk, then ---
# SIGKILL-equivalent _exit). Recovery must repair or discard the torn page
# from the WAL; no acked document may be affected.
nth=$(( $(rand 60) + 10 ))
echo "--- phase B: NETMARK_DISK_FAULT=write_torn:${nth}"
"$BIN" torture-gen --drop "$WORK/b_drop" --count "$DOCS" --seed "$((SEED + 1))" >/dev/null || exit 1
NETMARK_DISK_FAULT="write_torn:${nth}" ingest "$WORK/b_data" "$WORK/b_drop" 2>/dev/null
rc=$?
case "$rc" in
  0|41) ;;         # 41 = the injector's post-tear exit code
  *) fail "phase B: unexpected torture-ingest exit $rc (write_torn:${nth})" ;;
esac
"$BIN" torture-verify --data "$WORK/b_data" --drop "$WORK/b_drop" >/dev/null \
  || fail "phase B: VERIFY FAILED after write_torn:${nth}"
ingest "$WORK/b_data" "$WORK/b_drop" >/dev/null \
  || fail "phase B: clean drain failed after write_torn:${nth}"
"$BIN" torture-verify --data "$WORK/b_data" --drop "$WORK/b_drop" \
  || fail "phase B: FINAL VERIFY FAILED after write_torn:${nth}"

# --- Phase C: at-rest bit rot. Flip one byte of a committed heap page; ---
# the checksum must catch it (scrub errors or open-time quarantine), the
# affected documents must fail loudly as quarantined, and every other acked
# document must still verify byte-identical. checkpoint-bytes 1 forces a
# checkpoint+truncate on every commit so the WAL cannot mask the flip by
# replaying a clean page image over it.
offset=$(( 64 + $(rand 4000) ))
echo "--- phase C: corrupt XML.heap page 0 offset ${offset}"
"$BIN" torture-gen --drop "$WORK/c_drop" --count "$DOCS" --seed "$((SEED + 2))" >/dev/null || exit 1
ingest "$WORK/c_data" "$WORK/c_drop" 1 >/dev/null \
  || fail "phase C: clean ingest failed"
"$BIN" torture-verify --data "$WORK/c_data" --drop "$WORK/c_drop" >/dev/null \
  || fail "phase C: pre-corruption verify failed"
"$BIN" corrupt --data "$WORK/c_data" --table XML --page 0 --offset "$offset" >/dev/null \
  || fail "phase C: corrupt command failed"
scrub_out=$("$BIN" scrub --data "$WORK/c_data") || fail "phase C: scrub failed"
echo "$scrub_out"
errors=$(echo "$scrub_out" | sed -n 's/.*"errors_found":\([0-9]*\).*/\1/p')
qpages=$(echo "$scrub_out" | sed -n 's/.*"quarantined_pages":\([0-9]*\).*/\1/p')
if [ "$(( ${errors:-0} + ${qpages:-0} ))" -lt 1 ]; then
  fail "phase C: corruption NOT DETECTED (errors_found=$errors quarantined_pages=$qpages)"
fi
# Detected loss is tolerated (reported as quarantined); silent mismatches
# remain fatal inside torture-verify regardless of the flag.
"$BIN" torture-verify --data "$WORK/c_data" --drop "$WORK/c_drop" --allow-quarantine 1 \
  || fail "phase C: VERIFY FAILED after corruption"

# --- Phase D: torn sector at rest. Zero the first 512-byte sector of a ---
# seeded-random committed XML.heap page (header, slot directory and, for an
# overflow page, its marker all read as zeros). No version byte or header
# shape may exempt a page from its checksum: the page must be quarantined
# (scrub errors or open-time quarantine), its documents must fail loudly as
# quarantined, and every other acked document must still verify.
echo "--- phase D: zero one sector of a committed XML.heap page"
"$BIN" torture-gen --drop "$WORK/d_drop" --count "$DOCS" --seed "$((SEED + 3))" >/dev/null || exit 1
ingest "$WORK/d_data" "$WORK/d_drop" 1 >/dev/null \
  || fail "phase D: clean ingest failed"
"$BIN" torture-verify --data "$WORK/d_data" --drop "$WORK/d_drop" >/dev/null \
  || fail "phase D: pre-corruption verify failed"
pages=$(( $(wc -c < "$WORK/d_data/XML.heap") / 8192 ))
[ "$pages" -ge 1 ] || fail "phase D: XML.heap has no committed page"
page=$(rand "$pages")
echo "--- phase D: zero sector 0 of XML.heap page ${page} of ${pages}"
dd if=/dev/zero of="$WORK/d_data/XML.heap" bs=512 seek=$(( page * 16 )) count=1 \
  conv=notrunc 2>/dev/null || fail "phase D: dd failed"
scrub_out=$("$BIN" scrub --data "$WORK/d_data") || fail "phase D: scrub failed"
echo "$scrub_out"
errors=$(echo "$scrub_out" | sed -n 's/.*"errors_found":\([0-9]*\).*/\1/p')
qpages=$(echo "$scrub_out" | sed -n 's/.*"quarantined_pages":\([0-9]*\).*/\1/p')
if [ "$(( ${errors:-0} + ${qpages:-0} ))" -lt 1 ]; then
  fail "phase D: zeroed sector NOT DETECTED on page ${page} (errors_found=$errors quarantined_pages=$qpages)"
fi
"$BIN" torture-verify --data "$WORK/d_data" --drop "$WORK/d_drop" --allow-quarantine 1 \
  || fail "phase D: VERIFY FAILED after zeroing page ${page}"

echo "disk_torture: seed $SEED passed"
