package federation

import "github.com/mcc-cmi/cmi/internal/journal"

// A SpoolCheck is the offline verification report for the federation
// spool journal, produced by CheckSpool — the federation half of the
// `cmictl fsck` state-dir verifier.
type SpoolCheck struct {
	// Report is how the journal ends (journal.Check): records decoded
	// before any stop point, torn tail, corruption, refused format.
	journal.Report
	// Pushes counts the spooled notification records.
	Pushes int
	// Dones counts the delivery-confirmation records.
	Dones int
	// Pending is how many pushed entries have no done record — the
	// redelivery backlog a reopen would pick up.
	Pending int
	// OrphanDones counts done records whose key no push record carries.
	// Compaction drops delivered pairs together, so orphans are
	// anomalies worth reporting, though not proof of damage.
	OrphanDones int
}

// CheckSpool verifies the spool journal offline: the journal scan,
// record decode and push/done cross-references. It never modifies the
// data; quarantine decisions belong to the caller (see internal/fsck).
// The spool has no semantic damage of its own, so the embedded
// Report's Damaged is the verdict.
func CheckSpool(data []byte) SpoolCheck {
	var c SpoolCheck
	pushed := make(map[string]bool)
	var done []string
	c.Report = journal.Check(data, func(_ int64, payload []byte) error {
		var r spoolRecord
		if err := decodeSpoolRecord(payload, &r); err != nil {
			return err
		}
		if r.Kind == spoolPush {
			c.Pushes++
			pushed[r.Push.Key] = true
		} else {
			c.Dones++
			done = append(done, r.Key)
		}
		return nil
	})
	c.Pending = len(pushed)
	for _, key := range done {
		if pushed[key] {
			c.Pending--
			pushed[key] = false // a repeated done counts once
		} else if _, ok := pushed[key]; !ok {
			c.OrphanDones++
		}
	}
	return c
}
