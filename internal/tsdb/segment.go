package tsdb

// On-disk segment layer: one file per shard (rack) holding that shard's
// sealed blocks, so a finished run survives restarts and later analyses
// reopen it instead of re-running the simulation — the "record once,
// analyze many times" posture of the paper's DB2 environmental database.
//
// Format (version 2, little-endian):
//
//	file header:
//	  magic    [4]byte  "MTSG"
//	  version  uint16   2
//	  shard    uint16   rack index in [0, NumRacks)
//	  nblocks  uint32
//	  locLen   uint16   length of the location name
//	  locOff   int32    UTC offset in seconds of the records' location
//	  loc      []byte   location name (e.g. "America/Chicago", "CST")
//	per block, in time order:
//	  header:
//	    minT      int64    unix nanoseconds of the first sample
//	    maxT      int64    unix nanoseconds of the last sample
//	    count     uint32   samples in the block
//	    timesLen  uint32   compressed timestamp payload length
//	    channels  [6]×(enc uint8, scale float64 bits, dataLen uint32)
//	    zones     [6]×(min float64 bits, max float64 bits); both-NaN marks
//	                       an unusable zone (channel holds NaN values, so
//	                       the range proves nothing)
//	    crc       uint32   IEEE CRC32 over the header bytes above plus all
//	                       of the block's payload bytes
//	  payloads:
//	    times bytes, then the six channel payloads
//
// Downsampled-tier segments ("shard-NN.cold.seg", magic "MTSC") share the
// same file-header shape; their per-block headers carry the compaction
// window, window-start bounds, window count, folded source-record count,
// and a counts payload alongside the six channel payloads (the aggregate
// codecs live in downsample.go). Retention compaction writes them and
// rewrites the raw segment behind them; Open resolves a crashed compaction
// by preferring raw blocks over any cold block they overlap.
//
// The CRC covers the header fields as well as the payloads, so corruption
// of counts, bounds, or encodings is caught at Open, not at decode time.
// Payload bytes are not decoded at Open: blocks alias the file buffer and
// decompress lazily on first touch, so a cold open costs O(index) decode
// work. Writes go through internal/atomicfile (temp file, fsync, rename), so
// a crashed Flush never leaves a half-written segment behind, and Flush
// fsyncs each directory after its last rename so the new names survive a
// power failure.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"time"

	"mira/internal/atomicfile"
	"mira/internal/obs"
	"mira/internal/sensors"
	"mira/internal/topology"
)

var (
	// ErrNoData reports an Open directory with no segment files (or no
	// directory at all): the caller should fall back to a cold start.
	ErrNoData = errors.New("no segment data")
	// ErrCorrupt wraps every structural or checksum failure found while
	// parsing a segment file.
	ErrCorrupt = errors.New("corrupt segment")
)

var segMagic = [4]byte{'M', 'T', 'S', 'G'}

// coldMagic marks downsampled-tier segments ("shard-NN.cold.seg"). They
// share the raw format's file-header shape; each block header carries the
// compaction window, the first/last window start, the window count, the
// folded source-record count, and per-channel aggregate payloads
// (see downsample.go for the payload codecs).
var coldMagic = [4]byte{'M', 'T', 'S', 'C'}

const (
	// segVersion is the one raw-segment layout Open accepts and Flush
	// writes: each block header carries per-channel zone maps (min/max
	// float64 bits) so scans can prune blocks without decoding. Version 1,
	// which lacked them, is retired — no such file exists — and is
	// rejected like any other unknown version. Cold segments number their
	// own layout; downsampled blocks already store per-window min/max.
	segVersion     = 2
	segVersionCold = 1

	segFileHeaderSize = 4 + 2 + 2 + 4 + 2 + 4 // + location name
	// segBlockHeaderSize covers minT, maxT, count, timesLen, six
	// (enc, scale, dataLen) channel triples, six (zoneMin, zoneMax)
	// float64 pairs, and the CRC.
	segBlockHeaderSize = 8 + 8 + 4 + 4 + int(sensors.NumMetrics)*(1+8+4+16) + 4
	// coldBlockHeaderSize covers window, minT, maxT, count, srcRecords,
	// timesLen, countsLen, six channel triples, and the CRC.
	coldBlockHeaderSize = 8 + 8 + 8 + 4 + 8 + 4 + 4 + int(sensors.NumMetrics)*(1+8+4) + 4
)

func segFileName(shard int) string     { return fmt.Sprintf("shard-%02d.seg", shard) }
func coldSegFileName(shard int) string { return fmt.Sprintf("shard-%02d.cold.seg", shard) }
func hallDirName(hall int) string      { return fmt.Sprintf("hall-%02d", hall) }

// segPlace maps a fleet-wide shard index to its on-disk home: the segment
// directory itself for a single-hall store (the layout every pre-fleet
// segment tree uses), or a hall-HH subdirectory holding that hall's shards
// under their within-hall indices. Segment file headers always carry the
// within-hall index, so a hall directory is self-contained and hall-0 trees
// stay byte-compatible with single-machine ones.
func (s *Store) segPlace(dir string, global int) (shardDir string, fileShard int) {
	if s.fleet.Halls == 1 {
		return dir, global
	}
	return filepath.Join(dir, hallDirName(global/s.fleet.Racks)), global % s.fleet.Racks
}

// Flush seals every head block and persists all sealed blocks to per-shard
// segment files under dir (created if missing), replacing existing segments
// atomically and fsyncing each directory after the last rename into it.
// Records appended concurrently with the flush start fresh head blocks and
// are not persisted until the next Flush. Stats().DiskBytes reflects the
// written footprint afterwards.
func (s *Store) Flush(dir string) error {
	s.init()
	_, span := obs.Span(context.Background(), "tsdb.flush")
	defer span.End()
	s.SealAll()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("tsdb: flush: %w", err)
	}
	if s.fleet.Halls > 1 {
		for h := 0; h < s.fleet.Halls; h++ {
			if err := os.MkdirAll(filepath.Join(dir, hallDirName(h)), 0o755); err != nil {
				return fmt.Errorf("tsdb: flush: %w", err)
			}
		}
		// The hall directories' own names live in dir.
		if err := atomicfile.SyncDir(dir); err != nil {
			return fmt.Errorf("tsdb: flush: %w", err)
		}
	}
	loc := s.location()
	var disk int64
	var touched []string // directories renamed into; shards are hall-major, so each appears once
	for i := range s.shards {
		snap := s.shards[i].snapshot()
		if len(snap.sealed) == 0 && len(snap.cold) == 0 {
			continue
		}
		shardDir, fi := s.segPlace(dir, i)
		if n := len(touched); n == 0 || touched[n-1] != shardDir {
			touched = append(touched, shardDir)
		}
		if len(snap.sealed) > 0 {
			n, err := s.writeSegment(shardDir, fi, loc, snap.sealed)
			if err != nil {
				return err
			}
			disk += n
		}
		if len(snap.cold) > 0 {
			n, err := writeColdSegment(shardDir, fi, loc, snap.cold)
			if err != nil {
				return err
			}
			disk += n
		}
	}
	for _, d := range touched {
		if err := atomicfile.SyncDir(d); err != nil {
			return fmt.Errorf("tsdb: flush: %w", err)
		}
	}
	s.diskBytes.Store(disk)
	metFlushBytes.Add(uint64(disk))
	return nil
}

// writeSegment atomically replaces one shard's raw segment file with
// blocks. It reads payloads, so it first seals any block a concurrent
// partition roll closed after the caller's last SealAll (a no-op otherwise).
func (s *Store) writeSegment(dir string, shard int, loc *time.Location, blocks []*sealedBlock) (int64, error) {
	for _, b := range blocks {
		b.seal(&s.scales)
	}
	// The location name plus its current UTC offset reconstructs both IANA
	// zones (by name) and fixed zones like timeutil.Chicago (by offset).
	locName := loc.String()
	_, locOff := time.Unix(0, blocks[0].minT).In(loc).Zone()

	written := int64(segFileHeaderSize + len(locName))
	err := atomicfile.Write(filepath.Join(dir, segFileName(shard)), func(w io.Writer) error {
		hdr := make([]byte, 0, segFileHeaderSize)
		hdr = append(hdr, segMagic[:]...)
		hdr = binary.LittleEndian.AppendUint16(hdr, segVersion)
		hdr = binary.LittleEndian.AppendUint16(hdr, uint16(shard))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(blocks)))
		hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(locName)))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(int32(locOff)))
		hdr = append(hdr, locName...)
		if _, err := w.Write(hdr); err != nil {
			return err
		}

		bh := make([]byte, 0, segBlockHeaderSize)
		for _, b := range blocks {
			bh = bh[:0]
			bh = binary.LittleEndian.AppendUint64(bh, uint64(b.minT))
			bh = binary.LittleEndian.AppendUint64(bh, uint64(b.maxT))
			bh = binary.LittleEndian.AppendUint32(bh, uint32(b.count))
			bh = binary.LittleEndian.AppendUint32(bh, uint32(len(b.times)))
			for m := range b.ch {
				c := b.ch[m]
				bh = append(bh, c.enc)
				bh = binary.LittleEndian.AppendUint64(bh, math.Float64bits(c.scale))
				bh = binary.LittleEndian.AppendUint32(bh, uint32(len(c.data)))
			}
			for m := range b.ch {
				bh = binary.LittleEndian.AppendUint64(bh, math.Float64bits(b.zones[m].Min))
				bh = binary.LittleEndian.AppendUint64(bh, math.Float64bits(b.zones[m].Max))
			}
			crc := crc32.ChecksumIEEE(bh)
			crc = crc32.Update(crc, crc32.IEEETable, b.times)
			for m := range b.ch {
				crc = crc32.Update(crc, crc32.IEEETable, b.ch[m].data)
			}
			bh = binary.LittleEndian.AppendUint32(bh, crc)
			if _, err := w.Write(bh); err != nil {
				return err
			}
			if _, err := w.Write(b.times); err != nil {
				return err
			}
			written += int64(len(bh)) + int64(len(b.times))
			for m := range b.ch {
				if _, err := w.Write(b.ch[m].data); err != nil {
					return err
				}
				written += int64(len(b.ch[m].data))
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("tsdb: flush shard %d: %w", shard, err)
	}
	return written, nil
}

// Open loads a store previously persisted with Flush. Blocks are validated
// structurally and by checksum but not decoded: payloads alias the file
// buffers and decompress on first touch. Appending resumes after each
// shard's persisted maximum timestamp. A directory with no segment files
// (or a missing directory) returns an error wrapping ErrNoData; corrupted
// or truncated segments return errors wrapping ErrCorrupt. Multi-hall
// stores (opts.Fleet.Halls > 1) read each hall's shards from its hall-HH
// subdirectory; halls with no data yet are simply empty.
func Open(dir string, opts Options) (*Store, error) {
	s := NewStoreWith(opts)
	var disk int64
	loaded := 0
	if s.fleet.Halls > 1 {
		for h := 0; h < s.fleet.Halls; h++ {
			n, cnt, err := s.loadSegDir(filepath.Join(dir, hallDirName(h)), h*s.fleet.Racks)
			if err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					continue // hall with nothing persisted yet
				}
				return nil, err
			}
			disk += n
			loaded += cnt
		}
	} else {
		n, cnt, err := s.loadSegDir(dir, 0)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil, fmt.Errorf("tsdb: open %s: %w", dir, ErrNoData)
			}
			return nil, err
		}
		disk = n
		loaded = cnt
	}
	if loaded == 0 {
		return nil, fmt.Errorf("tsdb: open %s: %w", dir, ErrNoData)
	}
	// Crash recovery across the tiers: a cold block that overlaps any raw
	// sealed block's time range (window extents, not just starts) is a
	// leftover from a compaction that wrote its cold segment but died
	// before the raw rewrite. The raw data is still complete, so raw wins
	// and the stale cold block is dropped. A clean compaction never leaves
	// such an overlap — the fold boundary never splits a window.
	for i := range s.shards {
		sh := &s.shards[i]
		if len(sh.cold) == 0 {
			continue
		}
		kept := make([]*downBlock, 0, len(sh.cold))
		for _, d := range sh.cold {
			stale := false
			for _, b := range sh.sealed {
				if b.minT <= d.maxT+d.window-1 && b.maxT >= d.minT {
					stale = true
					break
				}
			}
			if stale {
				continue
			}
			kept = append(kept, d)
			sh.total += d.count
		}
		sh.cold = kept
		if len(kept) > 0 {
			// Forbid appends into compacted windows: the watermark moves to
			// the end of the last cold window if raw data doesn't already
			// reach past it.
			last := kept[len(kept)-1]
			if end := last.maxT + last.window - 1; !sh.hasLast || end > sh.lastT {
				sh.lastT = end
				sh.hasLast = true
			}
		}
	}
	for i := range s.shards {
		s.shards[i].counter = s.shards[i].total
	}
	s.diskBytes.Store(disk)
	return s, nil
}

// loadSegDir reads every segment file in one directory into the store,
// mapping each file's within-hall shard index to shards[base+index]. A
// missing directory surfaces as fs.ErrNotExist for the caller to translate
// (cold start for a flat store, empty hall for a fleet one).
func (s *Store) loadSegDir(dir string, base int) (disk int64, loaded int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, 0, err
		}
		return 0, 0, fmt.Errorf("tsdb: open %s: %w", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		// The raw pattern below also matches cold segment names, so the
		// cold suffix must be routed first.
		if ok, _ := filepath.Match("shard-*.cold.seg", e.Name()); ok {
			path := filepath.Join(dir, e.Name())
			buf, err := os.ReadFile(path)
			if err != nil {
				return 0, 0, fmt.Errorf("tsdb: open: %w", err)
			}
			shard, blocks, loc, err := parseColdSegment(e.Name(), buf)
			if err != nil {
				return 0, 0, err
			}
			if shard >= s.fleet.Racks {
				return 0, 0, fmt.Errorf("tsdb: segment %s: %w: shard %d outside fleet (%d racks per hall)", e.Name(), ErrCorrupt, shard, s.fleet.Racks)
			}
			sh := &s.shards[base+shard]
			if len(sh.cold) > 0 {
				return 0, 0, fmt.Errorf("tsdb: segment %s: %w: duplicate cold shard %d", e.Name(), ErrCorrupt, shard)
			}
			sh.cold = blocks
			s.loc.CompareAndSwap(nil, loc)
			disk += int64(len(buf))
			loaded++
			continue
		}
		if ok, _ := filepath.Match("shard-*.seg", e.Name()); !ok {
			continue
		}
		path := filepath.Join(dir, e.Name())
		buf, err := os.ReadFile(path)
		if err != nil {
			return 0, 0, fmt.Errorf("tsdb: open: %w", err)
		}
		shard, blocks, loc, err := parseSegment(e.Name(), buf)
		if err != nil {
			return 0, 0, err
		}
		if shard >= s.fleet.Racks {
			return 0, 0, fmt.Errorf("tsdb: segment %s: %w: shard %d outside fleet (%d racks per hall)", e.Name(), ErrCorrupt, shard, s.fleet.Racks)
		}
		sh := &s.shards[base+shard]
		if sh.total > 0 {
			return 0, 0, fmt.Errorf("tsdb: segment %s: %w: duplicate shard %d", e.Name(), ErrCorrupt, shard)
		}
		for _, b := range blocks {
			sh.sealed = append(sh.sealed, b)
			sh.total += b.count
		}
		sh.lastT = blocks[len(blocks)-1].maxT
		sh.hasLast = true
		s.loc.CompareAndSwap(nil, loc)
		disk += int64(len(buf))
		loaded++
	}
	return disk, loaded, nil
}

// parseSegment validates one segment file and returns its shard index,
// blocks (aliasing buf), and the records' location.
func parseSegment(name string, buf []byte) (int, []*sealedBlock, *time.Location, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("tsdb: segment %s: %w: %s", name, ErrCorrupt, fmt.Sprintf(format, args...))
	}
	if len(buf) < segFileHeaderSize {
		return 0, nil, nil, corrupt("truncated file header (%d bytes)", len(buf))
	}
	if [4]byte(buf[:4]) != segMagic {
		return 0, nil, nil, corrupt("bad magic %q", buf[:4])
	}
	version := binary.LittleEndian.Uint16(buf[4:6])
	if version != segVersion {
		return 0, nil, nil, corrupt("unsupported format version %d (want %d)", version, segVersion)
	}
	shard := int(binary.LittleEndian.Uint16(buf[6:8]))
	if shard >= topology.NumRacks {
		return 0, nil, nil, corrupt("shard index %d out of range (racks: %d)", shard, topology.NumRacks)
	}
	nblocks := int(binary.LittleEndian.Uint32(buf[8:12]))
	locLen := int(binary.LittleEndian.Uint16(buf[12:14]))
	locOff := int(int32(binary.LittleEndian.Uint32(buf[14:18])))
	if len(buf) < segFileHeaderSize+locLen {
		return 0, nil, nil, corrupt("truncated location name")
	}
	locName := string(buf[segFileHeaderSize : segFileHeaderSize+locLen])
	loc := loadLocation(locName, locOff)
	if nblocks <= 0 || nblocks > (len(buf)-segFileHeaderSize)/segBlockHeaderSize {
		return 0, nil, nil, corrupt("implausible block count %d for %d bytes", nblocks, len(buf))
	}

	blocks := make([]*sealedBlock, 0, nblocks)
	off := segFileHeaderSize + locLen
	var prevMax int64
	for i := 0; i < nblocks; i++ {
		if len(buf)-off < segBlockHeaderSize {
			return 0, nil, nil, corrupt("block %d: truncated header", i)
		}
		h := buf[off : off+segBlockHeaderSize]
		b := &sealedBlock{
			minT:  int64(binary.LittleEndian.Uint64(h[0:8])),
			maxT:  int64(binary.LittleEndian.Uint64(h[8:16])),
			count: int(binary.LittleEndian.Uint32(h[16:20])),
			src:   fmt.Sprintf("segment %s block %d", name, i),
		}
		timesLen := int(binary.LittleEndian.Uint32(h[20:24]))
		payload := timesLen
		p := 24
		for m := range b.ch {
			b.ch[m].enc = h[p]
			b.ch[m].scale = math.Float64frombits(binary.LittleEndian.Uint64(h[p+1 : p+9]))
			dataLen := int(binary.LittleEndian.Uint32(h[p+9 : p+13]))
			payload += dataLen
			p += 13
		}
		for m := range b.zones {
			b.zones[m].Min = math.Float64frombits(binary.LittleEndian.Uint64(h[p : p+8]))
			b.zones[m].Max = math.Float64frombits(binary.LittleEndian.Uint64(h[p+8 : p+16]))
			p += 16
		}
		wantCRC := binary.LittleEndian.Uint32(h[p : p+4])

		if b.count <= 0 {
			return 0, nil, nil, corrupt("block %d: empty block", i)
		}
		for m, z := range b.zones {
			// Valid zones are either ordered or the both-NaN "unusable"
			// sentinel; anything else is a mangled header the CRC would
			// catch anyway — reject it with a precise message first.
			if !z.usable() && !(math.IsNaN(z.Min) && math.IsNaN(z.Max)) {
				return 0, nil, nil, corrupt("block %d: channel %d: inverted zone map [%v, %v]", i, m, z.Min, z.Max)
			}
		}
		// Plausibility floor before any decoder allocates count-sized
		// buffers: delta-of-delta timestamps cost 64 bits for the first
		// value and at least one bit for each later one.
		if timesLen*8 < 63+b.count {
			return 0, nil, nil, corrupt("block %d: %d samples cannot fit in %d timestamp bytes", i, b.count, timesLen)
		}
		if b.minT > b.maxT {
			return 0, nil, nil, corrupt("block %d: inverted time bounds", i)
		}
		if i > 0 && b.minT < prevMax {
			return 0, nil, nil, corrupt("block %d: overlaps previous block", i)
		}
		prevMax = b.maxT
		if len(buf)-off-segBlockHeaderSize < payload {
			return 0, nil, nil, corrupt("block %d: truncated payload (%d of %d bytes)", i, len(buf)-off-segBlockHeaderSize, payload)
		}

		crc := crc32.ChecksumIEEE(h[:p]) // header fields, sans CRC itself
		crc = crc32.Update(crc, crc32.IEEETable, buf[off+segBlockHeaderSize:off+segBlockHeaderSize+payload])
		if crc != wantCRC {
			return 0, nil, nil, corrupt("block %d: checksum mismatch (got %08x, want %08x)", i, crc, wantCRC)
		}

		q := off + segBlockHeaderSize
		b.times = buf[q : q+timesLen : q+timesLen]
		q += timesLen
		p = 24
		for m := range b.ch {
			dataLen := int(binary.LittleEndian.Uint32(h[p+9 : p+13]))
			b.ch[m].data = buf[q : q+dataLen : q+dataLen]
			q += dataLen
			p += 13
			switch b.ch[m].enc {
			case encIntPacked:
				if !(b.ch[m].scale > 0) || math.IsInf(b.ch[m].scale, 1) { // also rejects NaN
					return 0, nil, nil, corrupt("block %d: channel %d: invalid scale %v", i, m, b.ch[m].scale)
				}
				// Packed groups cost at least their 7-bit width header.
				if groups := (b.count + packGroup - 1) / packGroup; dataLen*8 < groups*7 {
					return 0, nil, nil, corrupt("block %d: channel %d: %d values cannot fit in %d bytes", i, m, b.count, dataLen)
				}
			case encXOR:
				if dataLen*8 < 63+b.count { // 64-bit first value, ≥1 bit each after
					return 0, nil, nil, corrupt("block %d: channel %d: %d values cannot fit in %d bytes", i, m, b.count, dataLen)
				}
			default:
				return 0, nil, nil, corrupt("block %d: channel %d: unknown encoding %d", i, m, b.ch[m].enc)
			}
		}
		blocks = append(blocks, b)
		off = q
	}
	if off != len(buf) {
		return 0, nil, nil, corrupt("%d trailing bytes after last block", len(buf)-off)
	}
	return shard, blocks, loc, nil
}

// writeColdSegment atomically replaces one shard's downsampled segment file
// in dir with blocks.
func writeColdSegment(dir string, shard int, loc *time.Location, blocks []*downBlock) (int64, error) {
	locName := loc.String()
	_, locOff := time.Unix(0, blocks[0].minT).In(loc).Zone()

	written := int64(segFileHeaderSize + len(locName))
	err := atomicfile.Write(filepath.Join(dir, coldSegFileName(shard)), func(w io.Writer) error {
		hdr := make([]byte, 0, segFileHeaderSize)
		hdr = append(hdr, coldMagic[:]...)
		hdr = binary.LittleEndian.AppendUint16(hdr, segVersionCold)
		hdr = binary.LittleEndian.AppendUint16(hdr, uint16(shard))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(blocks)))
		hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(locName)))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(int32(locOff)))
		hdr = append(hdr, locName...)
		if _, err := w.Write(hdr); err != nil {
			return err
		}

		bh := make([]byte, 0, coldBlockHeaderSize)
		for _, d := range blocks {
			bh = bh[:0]
			bh = binary.LittleEndian.AppendUint64(bh, uint64(d.window))
			bh = binary.LittleEndian.AppendUint64(bh, uint64(d.minT))
			bh = binary.LittleEndian.AppendUint64(bh, uint64(d.maxT))
			bh = binary.LittleEndian.AppendUint32(bh, uint32(d.count))
			bh = binary.LittleEndian.AppendUint64(bh, uint64(d.srcRecords))
			bh = binary.LittleEndian.AppendUint32(bh, uint32(len(d.times)))
			bh = binary.LittleEndian.AppendUint32(bh, uint32(len(d.counts)))
			for m := range d.ch {
				c := d.ch[m]
				bh = append(bh, c.enc)
				bh = binary.LittleEndian.AppendUint64(bh, math.Float64bits(c.scale))
				bh = binary.LittleEndian.AppendUint32(bh, uint32(len(c.data)))
			}
			crc := crc32.ChecksumIEEE(bh)
			crc = crc32.Update(crc, crc32.IEEETable, d.times)
			crc = crc32.Update(crc, crc32.IEEETable, d.counts)
			for m := range d.ch {
				crc = crc32.Update(crc, crc32.IEEETable, d.ch[m].data)
			}
			bh = binary.LittleEndian.AppendUint32(bh, crc)
			if _, err := w.Write(bh); err != nil {
				return err
			}
			if _, err := w.Write(d.times); err != nil {
				return err
			}
			if _, err := w.Write(d.counts); err != nil {
				return err
			}
			written += int64(len(bh) + len(d.times) + len(d.counts))
			for m := range d.ch {
				if _, err := w.Write(d.ch[m].data); err != nil {
					return err
				}
				written += int64(len(d.ch[m].data))
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("tsdb: cold segment shard %d: %w", shard, err)
	}
	return written, nil
}

// parseColdSegment validates one downsampled segment file and returns its
// shard index, blocks (aliasing buf), and the records' location.
func parseColdSegment(name string, buf []byte) (int, []*downBlock, *time.Location, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("tsdb: segment %s: %w: %s", name, ErrCorrupt, fmt.Sprintf(format, args...))
	}
	if len(buf) < segFileHeaderSize {
		return 0, nil, nil, corrupt("truncated file header (%d bytes)", len(buf))
	}
	if [4]byte(buf[:4]) != coldMagic {
		return 0, nil, nil, corrupt("bad magic %q", buf[:4])
	}
	version := binary.LittleEndian.Uint16(buf[4:6])
	if version != segVersionCold {
		return 0, nil, nil, corrupt("unsupported format version %d (want %d)", version, segVersionCold)
	}
	shard := int(binary.LittleEndian.Uint16(buf[6:8]))
	if shard >= topology.NumRacks {
		return 0, nil, nil, corrupt("shard index %d out of range (racks: %d)", shard, topology.NumRacks)
	}
	nblocks := int(binary.LittleEndian.Uint32(buf[8:12]))
	locLen := int(binary.LittleEndian.Uint16(buf[12:14]))
	locOff := int(int32(binary.LittleEndian.Uint32(buf[14:18])))
	if len(buf) < segFileHeaderSize+locLen {
		return 0, nil, nil, corrupt("truncated location name")
	}
	locName := string(buf[segFileHeaderSize : segFileHeaderSize+locLen])
	loc := loadLocation(locName, locOff)
	if nblocks <= 0 || nblocks > (len(buf)-segFileHeaderSize)/coldBlockHeaderSize {
		return 0, nil, nil, corrupt("implausible block count %d for %d bytes", nblocks, len(buf))
	}

	blocks := make([]*downBlock, 0, nblocks)
	off := segFileHeaderSize + locLen
	var prevEnd int64
	for i := 0; i < nblocks; i++ {
		if len(buf)-off < coldBlockHeaderSize {
			return 0, nil, nil, corrupt("block %d: truncated header", i)
		}
		h := buf[off : off+coldBlockHeaderSize]
		d := &downBlock{
			window:     int64(binary.LittleEndian.Uint64(h[0:8])),
			minT:       int64(binary.LittleEndian.Uint64(h[8:16])),
			maxT:       int64(binary.LittleEndian.Uint64(h[16:24])),
			count:      int(binary.LittleEndian.Uint32(h[24:28])),
			srcRecords: int64(binary.LittleEndian.Uint64(h[28:36])),
			src:        fmt.Sprintf("segment %s block %d", name, i),
		}
		timesLen := int(binary.LittleEndian.Uint32(h[36:40]))
		countsLen := int(binary.LittleEndian.Uint32(h[40:44]))
		payload := timesLen + countsLen
		p := 44
		for m := range d.ch {
			d.ch[m].enc = h[p]
			d.ch[m].scale = math.Float64frombits(binary.LittleEndian.Uint64(h[p+1 : p+9]))
			dataLen := int(binary.LittleEndian.Uint32(h[p+9 : p+13]))
			payload += dataLen
			p += 13
		}
		wantCRC := binary.LittleEndian.Uint32(h[p : p+4])

		if d.window <= 0 {
			return 0, nil, nil, corrupt("block %d: invalid window %d", i, d.window)
		}
		if d.count <= 0 {
			return 0, nil, nil, corrupt("block %d: empty block", i)
		}
		if timesLen*8 < 63+d.count {
			return 0, nil, nil, corrupt("block %d: %d windows cannot fit in %d timestamp bytes", i, d.count, timesLen)
		}
		if countsLen*8 < d.count {
			return 0, nil, nil, corrupt("block %d: %d windows cannot fit in %d count bytes", i, d.count, countsLen)
		}
		if d.srcRecords < int64(d.count) {
			return 0, nil, nil, corrupt("block %d: %d source records for %d windows", i, d.srcRecords, d.count)
		}
		if d.minT > d.maxT {
			return 0, nil, nil, corrupt("block %d: inverted time bounds", i)
		}
		if d.minT != floorDiv(d.minT, d.window)*d.window || d.maxT != floorDiv(d.maxT, d.window)*d.window {
			return 0, nil, nil, corrupt("block %d: bounds not aligned to %dns windows", i, d.window)
		}
		if i > 0 && d.minT < prevEnd {
			return 0, nil, nil, corrupt("block %d: overlaps previous block", i)
		}
		prevEnd = d.maxT + d.window
		if len(buf)-off-coldBlockHeaderSize < payload {
			return 0, nil, nil, corrupt("block %d: truncated payload (%d of %d bytes)", i, len(buf)-off-coldBlockHeaderSize, payload)
		}

		crc := crc32.ChecksumIEEE(h[:p]) // header fields, sans CRC itself
		crc = crc32.Update(crc, crc32.IEEETable, buf[off+coldBlockHeaderSize:off+coldBlockHeaderSize+payload])
		if crc != wantCRC {
			return 0, nil, nil, corrupt("block %d: checksum mismatch (got %08x, want %08x)", i, crc, wantCRC)
		}

		q := off + coldBlockHeaderSize
		d.times = buf[q : q+timesLen : q+timesLen]
		q += timesLen
		d.counts = buf[q : q+countsLen : q+countsLen]
		q += countsLen
		p = 44
		for m := range d.ch {
			dataLen := int(binary.LittleEndian.Uint32(h[p+9 : p+13]))
			d.ch[m].data = buf[q : q+dataLen : q+dataLen]
			q += dataLen
			p += 13
			switch d.ch[m].enc {
			case encInt:
				if !(d.ch[m].scale > 0) || math.IsInf(d.ch[m].scale, 1) { // also rejects NaN
					return 0, nil, nil, corrupt("block %d: channel %d: invalid scale %v", i, m, d.ch[m].scale)
				}
			case encXOR:
			default:
				return 0, nil, nil, corrupt("block %d: channel %d: unknown encoding %d", i, m, d.ch[m].enc)
			}
		}
		blocks = append(blocks, d)
		off = q
	}
	if off != len(buf) {
		return 0, nil, nil, corrupt("%d trailing bytes after last block", len(buf)-off)
	}
	return shard, blocks, loc, nil
}

// loadLocation reconstructs the records' location: IANA names resolve via
// the zone database; fixed zones (like the twin's CST) fall back to the
// persisted name and offset.
func loadLocation(name string, offsetSec int) *time.Location {
	switch name {
	case "", "UTC":
		return time.UTC
	}
	if loc, err := time.LoadLocation(name); err == nil {
		return loc
	}
	return time.FixedZone(name, offsetSec)
}
