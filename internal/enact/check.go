package enact

import (
	"encoding/json"
	"fmt"

	"github.com/mcc-cmi/cmi/internal/journal"
)

// A WALCheck is the offline verification report for the enactment
// write-ahead log, produced by CheckWAL — the enact half of the
// `cmictl fsck` state-dir verifier.
type WALCheck struct {
	// Report is how the journal ends (journal.Check): records decoded
	// before any stop point, torn tail, corruption, refused format.
	journal.Report
	// LastSeq is the highest sequence number observed.
	LastSeq int64
	// SeqRegressions counts records whose sequence number failed to
	// increase — sequences are assigned monotonically under the staging
	// lock, so any regression means damage or splicing.
	SeqRegressions int
}

// Damaged reports whether the journal needs repair: anything beyond
// the torn tail a crash legitimately leaves behind.
func (c WALCheck) Damaged() bool {
	return c.Report.Damaged() || c.SeqRegressions > 0
}

// CheckWAL verifies the write-ahead log offline: the journal scan plus
// record decode and sequence-number monotonicity. It never modifies the
// data; quarantine decisions belong to the caller (see internal/fsck).
func CheckWAL(data []byte) WALCheck {
	var c WALCheck
	c.Report = journal.Check(data, func(_ int64, payload []byte) error {
		var rec walRecord
		if err := decodeWALRecord(payload, &rec); err != nil {
			return err
		}
		if rec.Seq <= c.LastSeq {
			c.SeqRegressions++
		} else {
			c.LastSeq = rec.Seq
		}
		return nil
	})
	return c
}

// A SnapshotCheck is the offline verification report for the enactment
// compaction snapshot.
type SnapshotCheck struct {
	// Present reports a snapshot file exists (an empty state dir has
	// none, which is healthy).
	Present bool
	// LastSeq is the journal high-water mark the snapshot covers;
	// journal records at or below it are superseded.
	LastSeq int64
	// Procs and Acts count the process and activity instances held.
	Procs int
	Acts  int
	// Err is the parse or version failure, if any. A snapshot does not
	// tolerate tearing: it is installed by atomic rename, so any damage
	// is corruption, never a crash artifact.
	Err error
}

// Damaged reports whether the snapshot is unusable.
func (c SnapshotCheck) Damaged() bool { return c.Present && c.Err != nil }

// CheckSnapshot verifies the compaction snapshot offline: it must be
// one well-formed JSON document of the supported version. Pass nil
// data for an absent file.
func CheckSnapshot(data []byte) SnapshotCheck {
	var c SnapshotCheck
	if data == nil {
		return c
	}
	c.Present = true
	var snap snapFile
	if err := json.Unmarshal(data, &snap); err != nil {
		c.Err = fmt.Errorf("enact: corrupt snapshot: %w", err)
		return c
	}
	if snap.Version != snapshotVersion {
		c.Err = fmt.Errorf("enact: snapshot has unsupported version %d", snap.Version)
		return c
	}
	c.LastSeq = snap.LastSeq
	c.Procs = len(snap.Procs)
	c.Acts = len(snap.Acts)
	return c
}
