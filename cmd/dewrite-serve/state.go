package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"strconv"

	"dewrite/internal/chaos"
	"dewrite/internal/config"
	"dewrite/internal/core"
	"dewrite/internal/snapshot"
	"dewrite/internal/units"
)

// Crash-safe serving state. Each snapshot generation carries one payload per
// shard: a serve-level header (the key→line directory and shard counters,
// which live above the controller) followed by the controller's own
// crash-consistent checkpoint (core.SaveState — dedup tables, refcounts,
// encryption counters, wear, line contents). The generation directory
// becomes visible only through snapshot.Writer's atomic rename, so a kill -9
// at any instant leaves either a complete generation or ignorable debris.
//
// Recovery (Recover, run by Serve before the listener opens) loads the
// newest valid generation, rebuilds every shard via core.Restore, and then
// scrubs: dedup-table invariants are checked and every recovered key is read
// back through the integrity-verified path, dropping keys whose lines come
// back poisoned. Only after the scrub does the first Advance publish
// generation zero — /readyz stays 503 throughout.

// shardSnapMagic leads every per-shard payload.
const shardSnapMagic = "DWSV1\n"

// maxShardHeader bounds the serve-level header during recovery, before any
// allocation is sized from hostile bytes.
const maxShardHeader = 64 << 20

// keySlot is one key→line binding in the serve-level header.
type keySlot struct {
	Key  string `json:"key"`
	Slot uint64 `json:"slot"`
}

// shardHeader is the serve-level state above the controller: the shard's key
// directory, allocation cursor, simulated clock, and request counters. Keys
// are sorted so identical state encodes to identical bytes (the chaos soak
// compares crash recovery against a clean-shutdown reference).
type shardHeader struct {
	Shard    int       `json:"shard"`
	Next     uint64    `json:"next"`
	Now      uint64    `json:"now"`
	Puts     uint64    `json:"puts"`
	Gets     uint64    `json:"gets"`
	Misses   uint64    `json:"misses"`
	Full     uint64    `json:"full"`
	CrossDup uint64    `json:"cross_dup"`
	Total    uint64    `json:"total"`
	Keys     []keySlot `json:"keys"`
}

func shardFileName(id int) string { return "shard-" + strconv.Itoa(id) }

// encodeShard serializes one shard: magic, length-prefixed JSON header, then
// the controller checkpoint. Caller holds the epoch write-lock (no request is
// running, so the state is stable; SaveState's metadata flush is safe).
func (s *Server) encodeShard(w *shardWorker) ([]byte, error) {
	hdr := shardHeader{
		Shard:    w.id,
		Next:     w.next,
		Now:      uint64(w.now),
		Puts:     w.puts,
		Gets:     w.gets,
		Misses:   w.misses,
		Full:     w.full,
		CrossDup: w.crossDup,
		Total:    w.total,
		Keys:     make([]keySlot, 0, len(w.slots)),
	}
	for key, slot := range w.slots {
		hdr.Keys = append(hdr.Keys, keySlot{Key: key, Slot: slot})
	}
	sort.Slice(hdr.Keys, func(i, j int) bool { return hdr.Keys[i].Key < hdr.Keys[j].Key })
	hdrBytes, err := json.Marshal(&hdr)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.WriteString(shardSnapMagic)
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(len(hdrBytes)))
	buf.Write(lenb[:])
	buf.Write(hdrBytes)
	if err := w.ctrl.SaveState(w.now, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeShard splits one payload into its header and the controller
// checkpoint bytes. The payload passed snapshot's CRC check, but the format
// is still validated defensively — a schema skew must error, not panic.
func decodeShard(blob []byte) (shardHeader, []byte, error) {
	var hdr shardHeader
	if len(blob) < len(shardSnapMagic)+4 {
		return hdr, nil, fmt.Errorf("shard payload truncated (%d bytes)", len(blob))
	}
	if string(blob[:len(shardSnapMagic)]) != shardSnapMagic {
		return hdr, nil, fmt.Errorf("bad shard payload magic %q", blob[:len(shardSnapMagic)])
	}
	blob = blob[len(shardSnapMagic):]
	hdrLen := int(binary.BigEndian.Uint32(blob[:4]))
	blob = blob[4:]
	if hdrLen > maxShardHeader || hdrLen > len(blob) {
		return hdr, nil, fmt.Errorf("shard header length %d exceeds payload", hdrLen)
	}
	if err := json.Unmarshal(blob[:hdrLen], &hdr); err != nil {
		return hdr, nil, fmt.Errorf("shard header: %w", err)
	}
	return hdr, blob[hdrLen:], nil
}

// snapMeta is the manifest compatibility block recovery checks before
// trusting any payload.
func (s *Server) snapMeta() map[string]string {
	return map[string]string{
		"shards": strconv.Itoa(s.cfg.Shards),
		"lines":  strconv.FormatUint(s.cfg.Lines, 10),
	}
}

// Snapshot takes one on-demand snapshot under the epoch barrier (no request
// running, state stable) and reports whether a generation was committed.
func (s *Server) Snapshot() bool {
	if s.cfg.SnapshotDir == "" {
		return false
	}
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	//dewrite:allow lockdiscipline operator-requested snapshots serialize at the barrier by design: no request holds the read lock; delta snapshots, parked in ROADMAP.md, would move this off the write lock
	return s.snapshotLocked(s.plan)
}

// snapshotLocked writes one generation. Caller holds the epoch write-lock.
// The chaos plan (nil to bypass injection) may abort the generation after a
// prefix of shard files, leaving exactly the debris a kill -9 mid-snapshot
// leaves; the generation number is burned either way, as it would be by a
// real crash-and-restart.
func (s *Server) snapshotLocked(plan *chaos.Plan) bool {
	gen := s.nextSnapGen
	s.nextSnapGen++
	w, err := snapshot.NewWriter(s.cfg.SnapshotDir, gen, s.snapMeta())
	if err != nil {
		s.m.snapshotAborts.Inc()
		s.logEvent(slog.LevelWarn, "snapshot_failed", "generation", gen, "err", err.Error())
		return false
	}
	abortAfter, abort := plan.SnapshotAbort(gen, len(s.shards))
	for i, shard := range s.shards {
		if abort && i == abortAfter {
			w.Abort()
			s.m.snapshotAborts.Inc()
			s.logEvent(slog.LevelInfo, "snapshot_chaos_abort",
				"generation", gen, "files_written", i)
			return false
		}
		blob, err := s.encodeShard(shard)
		if err == nil {
			err = w.Add(shardFileName(shard.id), blob)
		}
		if err != nil {
			w.Abort()
			s.m.snapshotAborts.Inc()
			s.logEvent(slog.LevelWarn, "snapshot_failed",
				"generation", gen, "shard", shard.id, "err", err.Error())
			return false
		}
	}
	if err := w.Commit(); err != nil {
		s.m.snapshotAborts.Inc()
		s.logEvent(slog.LevelWarn, "snapshot_failed", "generation", gen, "err", err.Error())
		return false
	}
	s.m.snapshots.Inc()
	s.m.snapLastGen.Set(float64(gen))
	if err := snapshot.Prune(s.cfg.SnapshotDir, s.cfg.SnapshotKeep); err != nil {
		s.logEvent(slog.LevelWarn, "snapshot_prune_failed", "err", err.Error())
	}
	s.logEvent(slog.LevelInfo, "snapshot_committed", "generation", gen)
	return true
}

// Recover loads the newest valid snapshot generation and rebuilds every
// shard from it, scrubbing the restored state before the server can become
// ready. Safe to call more than once; only the first call does work. With no
// snapshot directory configured, or a cold (empty) directory, it is a no-op.
//
// Recover runs on Serve's goroutine before the accept loop starts. Shard
// state is touched only by connection goroutines, each started by a go
// statement in that loop, so they observe the restored controllers through
// the go statement's happens-before edge.
func (s *Server) Recover() error {
	s.recoverOnce.Do(func() { s.recoverErr = s.recover() })
	return s.recoverErr
}

func (s *Server) recover() error {
	s.reg.Set("serve_recovery_generation", 0)
	if s.cfg.SnapshotDir == "" {
		return nil
	}
	g, skipped, err := snapshot.Latest(s.cfg.SnapshotDir)
	for _, msg := range skipped {
		s.logEvent(slog.LevelWarn, "recovery_skipped_candidate", "detail", msg)
	}
	if err != nil {
		return fmt.Errorf("dewrite-serve: scanning snapshots: %w", err)
	}
	if g == nil {
		s.logEvent(slog.LevelInfo, "recovery_cold_start", "dir", s.cfg.SnapshotDir)
		return nil
	}
	for key, want := range s.snapMeta() {
		if got := g.Manifest.Meta[key]; got != want {
			return fmt.Errorf("dewrite-serve: snapshot generation %d has %s=%q, this server wants %q",
				g.Manifest.Generation, key, got, want)
		}
	}

	var keys, dropped uint64
	for _, w := range s.shards {
		blob, err := g.ReadFile(shardFileName(w.id))
		if err != nil {
			return fmt.Errorf("dewrite-serve: recovering shard %d: %w", w.id, err)
		}
		hdr, ckpt, err := decodeShard(blob)
		if err != nil {
			return fmt.Errorf("dewrite-serve: recovering shard %d: %w", w.id, err)
		}
		if hdr.Shard != w.id || hdr.Next > w.cap {
			return fmt.Errorf("dewrite-serve: shard %d payload claims shard %d, next %d of %d lines",
				w.id, hdr.Shard, hdr.Next, w.cap)
		}
		ctrl, err := core.Restore(bytes.NewReader(ckpt), core.Options{DataLines: w.cap, Config: s.shardCfg})
		if err != nil {
			return fmt.Errorf("dewrite-serve: restoring shard %d controller: %w", w.id, err)
		}
		// Scrub before trusting anything: table invariants must hold, and
		// every recovered key must read back through the verified path.
		if err := ctrl.Tables().CheckInvariants(); err != nil {
			return fmt.Errorf("dewrite-serve: shard %d dedup tables corrupt after restore: %w", w.id, err)
		}
		w.now = units.Time(hdr.Now)
		slots := make(map[string]uint64, len(hdr.Keys))
		var buf [config.LineSize]byte
		shardDropped := 0
		for _, ks := range hdr.Keys {
			if ks.Slot >= hdr.Next {
				return fmt.Errorf("dewrite-serve: shard %d key %q maps past the allocation cursor", w.id, ks.Key)
			}
			t, err := ctrl.ReadVerified(w.now, ks.Slot, buf[:])
			if err != nil {
				// Poisoned or integrity-failed line: the key's data is gone.
				// Drop the binding — a GET will answer NotFound, which is
				// honest — rather than serving bytes that failed verification.
				shardDropped++
				s.logEvent(slog.LevelWarn, "recovery_dropped_key",
					"shard", w.id, "key", ks.Key, "err", err.Error())
				continue
			}
			w.now = t
			slots[ks.Key] = ks.Slot
		}
		w.ctrl = ctrl
		w.slots = slots
		w.next = hdr.Next
		w.puts, w.gets, w.misses, w.full = hdr.Puts, hdr.Gets, hdr.Misses, hdr.Full
		w.crossDup, w.total = hdr.CrossDup, hdr.Total

		// Re-arm the publish hook on the restored tables and rebuild this
		// shard's rows in the cross-shard fingerprint directory: one +1 per
		// live location, exactly what the original insertions published.
		ctrl.Tables().SetPublish(s.dir.Publisher(w.id))
		for loc := uint64(0); loc < w.next; loc++ {
			if h, live := ctrl.Tables().HashOf(loc); live {
				s.dir.Publish(w.id, h, 1)
			}
		}
		keys += uint64(len(slots))
		dropped += uint64(shardDropped)
	}

	s.nextSnapGen = g.Manifest.Generation + 1
	s.reg.Set("serve_recovery_generation", float64(g.Manifest.Generation))
	s.reg.Set("serve_recovery_keys", float64(keys))
	s.reg.Set("serve_recovery_dropped_keys", float64(dropped))
	s.m.snapLastGen.Set(float64(g.Manifest.Generation))
	s.logEvent(slog.LevelInfo, "recovery_complete",
		"generation", g.Manifest.Generation, "keys", keys, "dropped", dropped)
	return nil
}
