package core

import (
	"bufio"
	"fmt"
	"io"

	"dewrite/internal/cme"
	"dewrite/internal/dedup"
	"dewrite/internal/units"
)

// Checkpointing models a clean shutdown and cold boot of the secure NVM:
// SaveState flushes the dirty metadata (the ordered-shutdown path), then
// serializes everything the non-volatile device carries — line contents,
// wear, encryption counters, and the deduplication tables. Restore rebuilds
// a controller around that persistent state with cold volatile state (empty
// metadata caches, idle banks, fresh statistics), exactly like a power
// cycle.

const checkpointMagic = "DWCP1\n"

// SaveState writes a checkpoint of the controller's persistent state. The
// metadata caches are flushed first, so the checkpoint is crash-consistent
// by construction.
func (c *Controller) SaveState(now units.Time, w io.Writer) error {
	c.FlushMetadata(now)
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return err
	}
	var b8 [8]byte
	for i := 0; i < 8; i++ {
		b8[i] = byte(c.layout.DataLines >> (8 * i))
	}
	if _, err := bw.Write(b8[:]); err != nil {
		return err
	}
	if err := c.ctrs.SaveTo(bw); err != nil {
		return fmt.Errorf("core: saving counters: %w", err)
	}
	if _, err := c.tables.WriteTo(bw); err != nil {
		return fmt.Errorf("core: saving dedup tables: %w", err)
	}
	if err := c.dev.SaveContents(bw); err != nil {
		return fmt.Errorf("core: saving device contents: %w", err)
	}
	return bw.Flush()
}

// Restore builds a controller from a checkpoint written by SaveState. The
// options must describe the same logical capacity (DataLines is required:
// the checkpoint's own header is never trusted to size the tables) and key;
// mode, persistence scheme and machine configuration may differ (a restore
// onto different hardware parameters is legitimate).
func Restore(r io.Reader, opts Options) (*Controller, error) {
	if opts.DataLines == 0 {
		return nil, fmt.Errorf("core: restore needs Options.DataLines")
	}
	br := bufio.NewReader(r)
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint magic: %w", err)
	}
	if string(magic) != checkpointMagic {
		return nil, fmt.Errorf("core: bad checkpoint magic %q", magic)
	}
	var b8 [8]byte
	if _, err := io.ReadFull(br, b8[:]); err != nil {
		return nil, err
	}
	var savedLines uint64
	for i := 0; i < 8; i++ {
		savedLines |= uint64(b8[i]) << (8 * i)
	}
	if savedLines != opts.DataLines {
		return nil, fmt.Errorf("core: checkpoint has %d data lines, options say %d",
			savedLines, opts.DataLines)
	}

	ctrs, err := cme.LoadCounterStore(br, opts.DataLines)
	if err != nil {
		return nil, fmt.Errorf("core: loading counters: %w", err)
	}
	tables, err := dedup.ReadTables(br, opts.DataLines)
	if err != nil {
		return nil, fmt.Errorf("core: loading dedup tables: %w", err)
	}

	c := New(opts)
	c.ctrs = ctrs
	c.tables = tables
	if err := c.dev.LoadContents(br); err != nil {
		return nil, fmt.Errorf("core: loading device contents: %w", err)
	}
	return c, nil
}
