// Package fsck is the offline state-directory verifier behind
// `cmictl fsck`: it walks every durable artifact a CMI domain keeps —
// persisted ADL specs, the enactment snapshot and WAL, the delivery
// journal, the federation spool — and
// re-verifies each one the way its owning engine would load it: the
// journals through the same journal.Check their open runs (frame CRCs,
// record decodes, the torn / corrupt / refused-format classification),
// plus each log's own checks (sequence/id high-water monotonicity,
// orphan acks and dones).
//
// fsck never repairs silently. With Options.Quarantine it moves the
// unreadable suffix of a damaged journal to a `.quarantine` sibling and
// truncates the journal at the damage point, so the next boot loads the
// intact prefix while the evidence survives for inspection; snapshots
// and specs are never rewritten (delete and re-snapshot/re-load
// instead). Stray `*.tmp` files from interrupted atomic replacements
// are reported and, under Quarantine, removed.
package fsck

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/mcc-cmi/cmi/internal/adl"
	"github.com/mcc-cmi/cmi/internal/delivery"
	"github.com/mcc-cmi/cmi/internal/enact"
	"github.com/mcc-cmi/cmi/internal/federation"
	"github.com/mcc-cmi/cmi/internal/fs"
	"github.com/mcc-cmi/cmi/internal/journal"
)

// Options configures a Check run.
type Options struct {
	// Quarantine repairs damaged journals: the suffix from the damage
	// point on is saved to `<file>.quarantine` and the journal is
	// truncated (atomically) to its verified prefix. Stray *.tmp files
	// are removed. Snapshots and specs are never touched.
	Quarantine bool
	// FS is the filesystem to verify through; nil means the real one.
	FS fs.FS
}

// Kinds of durable artifact fsck understands.
const (
	KindSpec     = "spec"
	KindSnapshot = "snapshot"
	KindWAL      = "wal"
	KindJournal  = "delivery-journal"
	KindSpool    = "spool"
	KindTmp      = "stray-tmp"
)

// A FileReport is the verdict on one file in the state directory.
type FileReport struct {
	// Path is relative to the state directory.
	Path string
	// Kind classifies the artifact (KindSpec, KindWAL, ...).
	Kind string
	// Damaged reports the file needs attention: mid-journal corruption,
	// a refused (pre-binary) format, sequence regressions, an unreadable
	// snapshot or spec. A torn tail alone is NOT damage — it is the
	// artifact a tolerated crash leaves behind.
	Damaged bool
	// Torn reports the scan stopped before end of file.
	Torn bool
	// Corrupt reports mid-journal (non-tail) damage: committed history
	// follows the bad record, or a checksum-valid record failed to
	// decode — bit-rot inside committed history, not a crashed append.
	Corrupt bool
	// Legacy reports a journal written by a pre-binary CMI (or a v1
	// enactment WAL record, or the spool's pre-binary file name): every
	// open refuses it.
	Legacy bool
	// TornOffset is the byte offset the scan stopped at (meaningful
	// when Torn is set) — the truncation point Quarantine uses.
	TornOffset int64
	// Records counts the verified records before any damage point.
	Records int
	// Detail is a one-line human summary of what was found.
	Detail string
	// Quarantined reports the file was repaired: suffix saved to
	// `<Path>.quarantine`, journal truncated to the verified prefix
	// (or, for stray tmp files, removed).
	Quarantined bool
}

// A Report is the result of one Check run over a state directory.
type Report struct {
	// StateDir is the directory that was checked.
	StateDir string
	// Files holds one report per artifact found, sorted by path.
	Files []FileReport
	// Damaged counts the files whose FileReport.Damaged is set.
	Damaged int
	// WALSeq and SnapshotSeq are the sequence high-waters the WAL and
	// snapshot imply (0 when absent) — the cross-check `cmictl fsck`
	// prints so an operator can see which artifact is ahead.
	WALSeq      int64
	SnapshotSeq int64
}

// Clean reports whether the state directory needs no attention at all:
// no damage and no stray tmp files.
func (r *Report) Clean() bool {
	if r.Damaged > 0 {
		return false
	}
	for _, f := range r.Files {
		if f.Kind == KindTmp && !f.Quarantined {
			return false
		}
	}
	return true
}

// Check verifies the state directory at dir and returns the report.
// The directory must exist; an empty or freshly created one checks
// clean. Check itself only reads; repairs happen only under
// Options.Quarantine and are recorded per file.
func Check(dir string, opts Options) (*Report, error) {
	fsys := fs.Or(opts.FS)
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("fsck: %w", err)
	}
	r := &Report{StateDir: dir}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fsck: %w", err)
	}
	names := map[string]bool{}
	for _, e := range entries {
		names[e.Name()] = !e.IsDir()
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			r.add(strayTmp(fsys, dir, name, opts.Quarantine))
		case name == "enact.wal":
			r.add(checkLog(fsys, dir, name, KindWAL, opts.Quarantine, r.verifyWAL))
		case name == "enact.snap":
			r.add(checkSnapshot(fsys, dir, name, r))
		case name == "spool.journal":
			r.add(checkLog(fsys, dir, name, KindSpool, opts.Quarantine, verifySpool))
		case name == "spool.jsonl" && !names["spool.journal"]:
			r.add(legacySpoolName(fsys, dir, name))
		case name == delivery.JournalName:
			r.add(checkLog(fsys, dir, name, KindJournal, opts.Quarantine, verifyDelivery))
		}
	}
	if !names[delivery.JournalName] {
		legacy, err := delivery.LegacyQueues(fsys, dir)
		if err != nil {
			return nil, fmt.Errorf("fsck: %w", err)
		}
		for _, name := range legacy {
			r.add(legacyQueue(fsys, dir, name, opts.Quarantine))
		}
	}

	specDir := filepath.Join(dir, "specs")
	if specs, err := os.ReadDir(specDir); err == nil {
		for _, e := range specs {
			if e.IsDir() {
				continue
			}
			name := e.Name()
			rel := filepath.Join("specs", name)
			if strings.HasSuffix(name, ".tmp") {
				r.add(strayTmp(fsys, dir, rel, opts.Quarantine))
				continue
			}
			if strings.HasSuffix(name, ".adl") {
				r.add(checkSpec(fsys, dir, rel))
			}
		}
	}

	sort.Slice(r.Files, func(i, j int) bool { return r.Files[i].Path < r.Files[j].Path })
	for _, f := range r.Files {
		if f.Damaged {
			r.Damaged++
		}
	}
	return r, nil
}

func (r *Report) add(f FileReport) { r.Files = append(r.Files, f) }

func strayTmp(fsys fs.FS, dir, rel string, quarantine bool) FileReport {
	f := FileReport{Path: rel, Kind: KindTmp,
		Detail: "leftover from an interrupted atomic replacement; safe to remove"}
	if quarantine {
		if err := fsys.Remove(filepath.Join(dir, rel)); err == nil {
			f.Quarantined = true
			f.Detail = "leftover from an interrupted atomic replacement; removed"
		}
	}
	return f
}

func checkSpec(fsys fs.FS, dir, rel string) FileReport {
	f := FileReport{Path: rel, Kind: KindSpec}
	data, err := fsys.ReadFile(filepath.Join(dir, rel))
	if err != nil {
		f.Damaged = true
		f.Detail = fmt.Sprintf("unreadable: %v", err)
		return f
	}
	spec, err := adl.Parse(string(data))
	if err != nil {
		f.Damaged = true
		f.Detail = fmt.Sprintf("does not parse: %v (reload the spec and delete this file)", err)
		return f
	}
	f.Detail = fmt.Sprintf("%d process schema(s), %d awareness schema(s)",
		len(spec.Processes), len(spec.Awareness))
	return f
}

func checkSnapshot(fsys fs.FS, dir, rel string, r *Report) FileReport {
	f := FileReport{Path: rel, Kind: KindSnapshot}
	data, err := fsys.ReadFile(filepath.Join(dir, rel))
	if err != nil {
		f.Damaged = true
		f.Detail = fmt.Sprintf("unreadable: %v", err)
		return f
	}
	c := enact.CheckSnapshot(data)
	if c.Damaged() {
		f.Damaged = true
		f.Detail = fmt.Sprintf("%v (delete the snapshot; the WAL replays from the previous one)", c.Err)
		return f
	}
	r.SnapshotSeq = c.LastSeq
	f.Records = c.Procs + c.Acts
	f.Detail = fmt.Sprintf("seq %d, %d process(es), %d activity instance(s)", c.LastSeq, c.Procs, c.Acts)
	return f
}

// A verifier runs one log's offline check over a journal image: the
// journal report, the log's own damage (problem, empty when none) and a
// one-line summary of what the journal holds.
type verifier func(data []byte) (rep journal.Report, problem, summary string)

func (r *Report) verifyWAL(data []byte) (journal.Report, string, string) {
	c := enact.CheckWAL(data)
	r.WALSeq = c.LastSeq
	problem := ""
	if c.SeqRegressions > 0 {
		problem = fmt.Sprintf("%d sequence regression(s): record order contradicts the commit order", c.SeqRegressions)
	}
	return c.Report, problem, fmt.Sprintf("%d record(s), seq %d", c.Records, c.LastSeq)
}

func verifyDelivery(data []byte) (journal.Report, string, string) {
	c := delivery.CheckJournal(data)
	problem := ""
	if c.IDRegressions > 0 {
		problem = fmt.Sprintf("%d notification-id regression(s)", c.IDRegressions)
	}
	summary := fmt.Sprintf("%d record(s), %d participant(s), %d undelivered, highest next id %d",
		c.Records, c.Participants, c.Notifs-c.Acks, c.NextID)
	if c.OrphanAcks > 0 {
		summary += fmt.Sprintf("; %d orphan ack(s)", c.OrphanAcks)
	}
	return c.Report, problem, summary
}

func verifySpool(data []byte) (journal.Report, string, string) {
	c := federation.CheckSpool(data)
	summary := fmt.Sprintf("%d record(s), %d pending", c.Records, c.Pending)
	if c.OrphanDones > 0 {
		summary += fmt.Sprintf("; %d orphan done(s)", c.OrphanDones)
	}
	return c.Report, "", summary
}

// checkLog verifies one journal file with its log's verifier.
func checkLog(fsys fs.FS, dir, rel, kind string, quarantine bool, verify verifier) FileReport {
	f := FileReport{Path: rel, Kind: kind}
	path := filepath.Join(dir, rel)
	data, err := fsys.ReadFile(path)
	if err != nil {
		f.Damaged = true
		f.Detail = fmt.Sprintf("unreadable: %v", err)
		return f
	}
	rep, problem, summary := verify(data)
	f.Records, f.TornOffset = rep.Records, rep.Offset
	f.Torn = rep.State != journal.Clean
	f.Corrupt = rep.State == journal.Corrupt
	f.Legacy = rep.State == journal.Legacy
	f.Damaged = rep.Damaged() || problem != ""
	switch {
	case f.Legacy:
		f.Detail = fmt.Sprintf("%s at offset %d: every open refuses it; drain it with the release that wrote it, or -quarantine moves it aside", journal.ErrLegacy, rep.Offset)
	case f.Corrupt:
		f.Detail = fmt.Sprintf("corrupt mid-journal at offset %d: %d verified record(s) before it, committed history after it unreachable", rep.Offset, rep.Records)
	case problem != "":
		f.Detail = problem
	case f.Torn:
		f.Detail = fmt.Sprintf("torn tail at offset %d (a crashed append; the next open cuts it off): %s", rep.Offset, summary)
	default:
		f.Detail = summary
	}
	maybeQuarantine(fsys, path, data, &f, quarantine)
	return f
}

// legacySpoolName reports a spool under its pre-binary name with no
// spool.journal beside it: cmid refuses to forward rather than guess.
func legacySpoolName(fsys fs.FS, dir, rel string) FileReport {
	f := checkLog(fsys, dir, rel, KindSpool, false, verifySpool)
	hint := "its records are current: rename it to spool.journal"
	if f.Legacy {
		hint = "its records are JSON lines: drain it with the release that wrote it"
	}
	f.Damaged, f.Legacy = true, true
	f.Detail = fmt.Sprintf("spool under its pre-binary name, %s; cmid refuses to forward until then", hint)
	return f
}

// legacyQueue reports a per-participant queue file of the layout before
// the store-wide delivery journal: every boot refuses the directory
// while it is there. Under -quarantine its whole content moves aside,
// leaving an empty file the store ignores.
func legacyQueue(fsys fs.FS, dir, rel string, quarantine bool) FileReport {
	f := FileReport{Path: rel, Kind: KindJournal, Damaged: true, Legacy: true, Torn: true,
		Detail: fmt.Sprintf("per-participant delivery queue %s; cmid refuses to boot beside it: drain it with the release that wrote it, or -quarantine moves it aside", journal.ErrLegacy)}
	path := filepath.Join(dir, rel)
	data, err := fsys.ReadFile(path)
	if err != nil {
		f.Detail = fmt.Sprintf("unreadable: %v", err)
		return f
	}
	maybeQuarantine(fsys, path, data, &f, quarantine)
	return f
}

// maybeQuarantine repairs a damaged or torn journal under -quarantine:
// the suffix from the damage point on is saved to `<path>.quarantine`
// (evidence: for mid-journal corruption it still holds checksum-valid
// frames) and the journal is atomically truncated to its verified
// prefix. A torn tail is also trimmed — harmless to keep, but trimming
// it makes the post-fsck journal byte-exact with what loads.
func maybeQuarantine(fsys fs.FS, path string, data []byte, f *FileReport, quarantine bool) {
	if !quarantine || !f.Torn || f.TornOffset < 0 || f.TornOffset > int64(len(data)) {
		return
	}
	suffix := data[f.TornOffset:]
	if err := fs.ReplaceFile(fsys, path+".quarantine", suffix, true); err != nil {
		f.Detail += fmt.Sprintf("; quarantine failed: %v", err)
		return
	}
	if err := fs.ReplaceFile(fsys, path, data[:f.TornOffset], true); err != nil {
		f.Detail += fmt.Sprintf("; truncate failed: %v", err)
		return
	}
	f.Quarantined = true
	f.Detail += fmt.Sprintf("; suffix (%d byte(s)) moved to %s, journal truncated to verified prefix",
		len(suffix), filepath.Base(path)+".quarantine")
}
