package delivery

import "github.com/mcc-cmi/cmi/internal/journal"

// A JournalCheck is the offline verification report for a store's
// delivery journal, produced by CheckJournal — the delivery half of the
// `cmictl fsck` state-dir verifier.
type JournalCheck struct {
	// Report is how the journal ends (journal.Check): records decoded
	// before any stop point, torn tail, corruption, refused format.
	journal.Report
	// Participants counts the participants with records in the journal.
	Participants int
	// Notifs counts the notification records.
	Notifs int
	// Acks counts the acknowledgment records.
	Acks int
	// NextID is the highest id high-water mark the journal implies for
	// any participant — the value a load would compute for that queue.
	NextID int64
	// MaxID is the highest notification id seen.
	MaxID int64
	// IDRegressions counts notif records whose id failed to increase
	// within their participant's queue — ids are assigned monotonically
	// per participant, so any regression means damage.
	IDRegressions int
	// OrphanAcks counts ack records whose id no notification of the same
	// participant in the journal carries. Compaction keeps every
	// unacknowledged notification, so these are anomalies worth
	// reporting, though not proof of damage.
	OrphanAcks int
}

// Damaged reports whether the journal needs repair: anything beyond the
// torn tail a crash legitimately leaves behind.
func (c JournalCheck) Damaged() bool {
	return c.Report.Damaged() || c.IDRegressions > 0
}

// CheckJournal verifies a delivery journal offline: the journal scan,
// every record decode, per-participant notification-id monotonicity and
// the ack cross-references. It never modifies the data; quarantine
// decisions belong to the caller (see internal/fsck).
func CheckJournal(data []byte) JournalCheck {
	type noteID struct {
		participant string
		id          int64
	}
	c := JournalCheck{NextID: 1}
	maxID := make(map[string]int64)
	ids := make(map[noteID]bool)
	var acked []noteID
	c.Report = journal.Check(data, func(_ int64, payload []byte) error {
		var r record
		if err := decodeRecord(payload, &r); err != nil {
			return err
		}
		if _, ok := maxID[r.Participant]; !ok {
			maxID[r.Participant] = 0
			c.Participants++
		}
		switch r.Kind {
		case recNotif:
			c.Notifs++
			ids[noteID{r.Participant, r.Notif.ID}] = true
			if r.Notif.ID <= maxID[r.Participant] {
				c.IDRegressions++
			} else {
				maxID[r.Participant] = r.Notif.ID
			}
			c.MaxID = max(c.MaxID, r.Notif.ID)
			c.NextID = max(c.NextID, r.Notif.ID+1)
		case recAck:
			c.Acks++
			acked = append(acked, noteID{r.Participant, r.AckID})
		case recNext:
			c.NextID = max(c.NextID, r.NextID)
		}
		return nil
	})
	for _, a := range acked {
		if !ids[a] {
			c.OrphanAcks++
		}
	}
	return c
}
