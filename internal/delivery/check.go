package delivery

import "github.com/mcc-cmi/cmi/internal/journal"

// A JournalCheck is the offline verification report for one participant
// journal, produced by CheckJournal — the delivery half of the
// `cmictl fsck` state-dir verifier.
type JournalCheck struct {
	// Report is how the journal ends (journal.Check): records decoded
	// before any stop point, torn tail, corruption, refused format.
	journal.Report
	// Notifs counts the notification records.
	Notifs int
	// Acks counts the acknowledgment records.
	Acks int
	// NextID is the id high-water mark the journal implies — the same
	// value a load would compute.
	NextID int64
	// MaxID is the highest notification id seen.
	MaxID int64
	// IDRegressions counts notif records whose id failed to increase —
	// ids are assigned monotonically, so any regression means damage.
	IDRegressions int
	// OrphanAcks counts ack records whose id no record in the journal
	// carries. Compaction keeps every unacknowledged notification, so
	// these are anomalies worth reporting, though not proof of damage.
	OrphanAcks int
}

// Damaged reports whether the journal needs repair: anything beyond the
// torn tail a crash legitimately leaves behind.
func (c JournalCheck) Damaged() bool {
	return c.Report.Damaged() || c.IDRegressions > 0
}

// CheckJournal verifies one participant journal offline: the journal
// scan, every record decode, notification-id monotonicity and the ack
// cross-references. It never modifies the data; quarantine decisions
// belong to the caller (see internal/fsck).
func CheckJournal(data []byte) JournalCheck {
	c := JournalCheck{NextID: 1}
	ids := make(map[int64]bool)
	var acked []int64
	c.Report = journal.Check(data, func(_ int64, payload []byte) error {
		var r record
		if err := decodeRecord(payload, &r); err != nil {
			return err
		}
		switch r.Kind {
		case recNotif:
			c.Notifs++
			ids[r.Notif.ID] = true
			if r.Notif.ID <= c.MaxID {
				c.IDRegressions++
			} else {
				c.MaxID = r.Notif.ID
			}
			c.NextID = max(c.NextID, r.Notif.ID+1)
		case recAck:
			c.Acks++
			acked = append(acked, r.AckID)
		case recNext:
			c.NextID = max(c.NextID, r.NextID)
		}
		return nil
	})
	for _, id := range acked {
		if !ids[id] {
			c.OrphanAcks++
		}
	}
	return c
}
