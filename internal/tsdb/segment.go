package tsdb

// On-disk segment layer: one file per shard (rack) and tier holding that
// shard's blocks, so a finished run survives restarts and later analyses
// reopen it instead of re-running the simulation — the "record once,
// analyze many times" posture of the paper's DB2 environmental database.
//
// Both tiers share one envelope (little-endian), written by writeSegFile
// and checked by parseSegFile:
//
//	file header:
//	  magic    [4]byte  "MTSG" raw ("shard-NN.seg"), "MTSC" cold ("shard-NN.cold.seg")
//	  version  uint16   2 raw, 1 cold
//	  shard    uint16   rack index in [0, NumRacks)
//	  nblocks  uint32
//	  locLen   uint16   length of the location name
//	  locOff   int32    UTC offset in seconds of the records' location
//	  loc      []byte   location name (e.g. "America/Chicago", "CST")
//	per block, in time order:
//	  header fields    the tier's own, below
//	  crc      uint32  IEEE CRC32 over the header fields plus all of the
//	                   block's payload bytes
//	  payloads         in the order the header lists their lengths
//
// A raw block's header fields:
//
//	minT      int64    unix nanoseconds of the first sample
//	maxT      int64    unix nanoseconds of the last sample
//	count     uint32   samples in the block
//	timesLen  uint32   compressed timestamp payload length
//	channels  [6]×(enc uint8, scale float64 bits, dataLen uint32)
//	zones     [6]×(min float64 bits, max float64 bits); both-NaN marks an
//	                   unusable zone (channel holds NaN values, so the range
//	                   proves nothing)
//
// and its payloads: times, then the six channel payloads. A cold
// (downsampled) block's header fields:
//
//	window      int64   compaction window, nanoseconds
//	minT        int64   unix nanoseconds of the first window start
//	maxT        int64   unix nanoseconds of the last window start
//	count       uint32  windows in the block
//	srcRecords  uint64  raw records folded into the block
//	timesLen    uint32  window-start payload length
//	countsLen   uint32  per-window record-count payload length
//	channels    [6]×(enc uint8, scale float64 bits, dataLen uint32)
//
// and its payloads: window starts, counts, then the six aggregate channel
// payloads (codecs in downsample.go). Retention compaction writes cold
// segments and rewrites the raw segment behind them; Open resolves a
// crashed compaction by preferring raw blocks over any cold block they
// overlap.
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

const (
	segFileHeaderSize = 4 + 2 + 2 + 4 + 2 + 4 // + location name
	// segBlockHeaderSize and coldBlockHeaderSize are a raw and a cold
	// block's header fields plus the CRC.
	segBlockHeaderSize  = 8 + 8 + 4 + 4 + int(sensors.NumMetrics)*(1+8+4+16) + 4
	coldBlockHeaderSize = 8 + 8 + 8 + 4 + 8 + 4 + 4 + int(sensors.NumMetrics)*(1+8+4) + 4
)

// segTier is one storage tier's identity in the shared envelope.
type segTier struct {
	magic   [4]byte
	version uint16
	header  int // block header bytes, CRC included
	file    func(shard int) string
}

// The raw tier's version 2 carries per-channel zone maps; version 1, which
// lacked them, is retired — no such file exists — and is rejected like any
// other unknown version. Cold segments number their own layout.
var (
	rawTier  = segTier{[4]byte{'M', 'T', 'S', 'G'}, 2, segBlockHeaderSize, segFileName}
	coldTier = segTier{[4]byte{'M', 'T', 'S', 'C'}, 1, coldBlockHeaderSize, coldSegFileName}
)

// segBlock is one tier's block codec inside the envelope; *sealedBlock
// and *downBlock implement it.
type segBlock interface {
	// putHeader appends the block's header fields, CRC excluded.
	putHeader(h []byte) []byte
	// payloads appends the block's payloads in file order.
	payloads(p [][]byte) [][]byte
	// getHeader fills a fresh block from header fields h, validates them,
	// and appends the payload lengths in file order to lens.
	getHeader(h []byte, lens []int) ([]int, error)
	// span is the time range [first, end) the block covers; a block may
	// not start before its predecessor's end.
	span() (first, end int64)
	// attach hands the block its payloads, aliasing the file buffer, and
	// validates them against the header.
	attach(p [][]byte, src origin) error
}

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
		var raw, cold int64
		var err error
		if len(snap.sealed) > 0 {
			raw, err = saveSegFile(shardDir, rawTier, fi, loc, snap.sealed)
		}
		if err == nil && len(snap.cold) > 0 {
			cold, err = saveSegFile(shardDir, coldTier, fi, loc, snap.cold)
		}
		if err != nil {
			return err
		}
		disk += raw + cold
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

// saveSegFile atomically replaces shard's tier-t segment file in dir with
// blocks and returns its size.
func saveSegFile[B segBlock](dir string, t segTier, shard int, loc *time.Location, blocks []B) (int64, error) {
	var n int64
	err := atomicfile.Write(filepath.Join(dir, t.file(shard)), func(w io.Writer) (err error) {
		n, err = writeSegFile(w, t, shard, loc, blocks)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("tsdb: write segment %s: %w", t.file(shard), err)
	}
	return n, nil
}

// writeSegFile writes a tier-t segment holding blocks (non-empty, in time
// order) to w and returns the bytes written.
func writeSegFile[B segBlock](w io.Writer, t segTier, shard int, loc *time.Location, blocks []B) (int64, error) {
	// The location name plus its current UTC offset reconstructs both IANA
	// zones (by name) and fixed zones like timeutil.Chicago (by offset).
	locName := loc.String()
	first, _ := blocks[0].span()
	_, locOff := time.Unix(0, first).In(loc).Zone()
	hdr := append(make([]byte, 0, max(t.header, segFileHeaderSize+len(locName))), t.magic[:]...)
	hdr = binary.LittleEndian.AppendUint16(hdr, t.version)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(shard))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(blocks)))
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(locName)))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(int32(locOff)))
	hdr = append(hdr, locName...)
	var n int64
	var err error
	write := func(b []byte) {
		if err == nil {
			k, werr := w.Write(b)
			n, err = n+int64(k), werr
		}
	}
	write(hdr)
	var p [][]byte
	for _, b := range blocks {
		hdr, p = b.putHeader(hdr[:0]), b.payloads(p[:0])
		crc := crc32.ChecksumIEEE(hdr)
		for _, q := range p {
			crc = crc32.Update(crc, crc32.IEEETable, q)
		}
		write(binary.LittleEndian.AppendUint32(hdr, crc))
		for _, q := range p {
			write(q)
		}
	}
	return n, err
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
	for h := 0; h < s.fleet.Halls; h++ {
		hallDir, _ := s.segPlace(dir, h*s.fleet.Racks)
		n, cnt, err := s.loadSegDir(hallDir, h*s.fleet.Racks)
		if err != nil {
			return nil, err
		}
		disk += n
		loaded += cnt
	}
	if loaded == 0 {
		return nil, fmt.Errorf("tsdb: open %s: %w", dir, ErrNoData)
	}
	for i := range s.shards {
		sh := &s.shards[i]
		for _, b := range sh.sealed {
			sh.total += b.count
		}
		if n := len(sh.sealed); n > 0 {
			sh.lastT, sh.hasLast = sh.sealed[n-1].maxT, true
		}
		// Crash recovery across the tiers: a cold block that overlaps any
		// raw sealed block's time range (window extents, not just starts)
		// is a leftover from a compaction that wrote its cold segment but
		// died before the raw rewrite. The raw data is still complete, so
		// raw wins and the stale cold block is dropped. A clean compaction
		// never leaves such an overlap — the fold boundary never splits a
		// window.
		kept := sh.cold[:0]
	cold:
		for _, d := range sh.cold {
			for _, b := range sh.sealed {
				if b.minT < d.maxT+d.window && b.maxT >= d.minT {
					continue cold
				}
			}
			kept = append(kept, d)
			sh.total += d.count
		}
		sh.cold = kept
		// Forbid appends into compacted windows: the watermark moves to the
		// end of the last cold window if raw data doesn't already reach
		// past it.
		if n := len(kept); n > 0 {
			if end := kept[n-1].maxT + kept[n-1].window - 1; !sh.hasLast || end > sh.lastT {
				sh.lastT, sh.hasLast = end, true
			}
		}
		sh.counter = sh.total
	}
	s.diskBytes.Store(disk)
	return s, nil
}

// loadSegDir reads every segment file in one directory into the store,
// mapping each file's within-hall shard index to shards[base+index]. A
// missing directory holds nothing: a flat store's then opens as ErrNoData,
// a fleet hall's as empty.
func (s *Store) loadSegDir(dir string, base int) (disk int64, loaded int, err error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, 0, nil
	} else if err != nil {
		return 0, 0, fmt.Errorf("tsdb: open %s: %w", dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if ok, _ := filepath.Match("shard-*.seg", name); !ok || e.IsDir() {
			continue // the pattern matches cold segment names too
		}
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return 0, 0, fmt.Errorf("tsdb: open: %w", err)
		}
		var fi int
		var loc *time.Location
		var install func(sh *shard) bool // false when sh already holds this tier
		if cold, _ := filepath.Match("shard-*.cold.seg", name); cold {
			var blocks []*downBlock
			fi, blocks, loc, err = parseColdSegment(name, buf)
			install = func(sh *shard) bool { return setOnce(&sh.cold, blocks) }
		} else {
			var blocks []*sealedBlock
			fi, blocks, loc, err = parseSegment(name, buf)
			install = func(sh *shard) bool { return setOnce(&sh.sealed, blocks) }
		}
		if err != nil {
			return 0, 0, err
		}
		if fi >= s.fleet.Racks {
			return 0, 0, fmt.Errorf("tsdb: segment %s: %w: shard %d outside fleet (%d racks per hall)", name, ErrCorrupt, fi, s.fleet.Racks)
		}
		if !install(&s.shards[base+fi]) {
			return 0, 0, fmt.Errorf("tsdb: segment %s: %w: duplicate shard %d", name, ErrCorrupt, fi)
		}
		s.loc.CompareAndSwap(nil, loc)
		disk += int64(len(buf))
		loaded++
	}
	return disk, loaded, nil
}

// setOnce stores blocks in an empty *dst and reports whether it was empty.
func setOnce[B any](dst *[]B, blocks []B) bool {
	if len(*dst) > 0 {
		return false
	}
	*dst = blocks
	return true
}

// parseSegment validates one raw segment file and returns its shard index,
// blocks (aliasing buf), and the records' location.
func parseSegment(name string, buf []byte) (int, []*sealedBlock, *time.Location, error) {
	return parseSegFile[sealedBlock](rawTier, name, buf)
}

// parseColdSegment is parseSegment for a downsampled segment file.
func parseColdSegment(name string, buf []byte) (int, []*downBlock, *time.Location, error) {
	return parseSegFile[downBlock](coldTier, name, buf)
}

// parseSegFile validates one tier-t segment file — its file header, then
// each block's header, payload bounds, CRC and the tier's own checks, then
// that nothing trails the last block — and returns its shard index, blocks
// (aliasing buf), and the records' location.
func parseSegFile[T any, B interface {
	*T
	segBlock
}](t segTier, name string, buf []byte) (int, []B, *time.Location, error) {
	corrupt := func(format string, args ...any) (int, []B, *time.Location, error) {
		return 0, nil, nil, fmt.Errorf("tsdb: segment %s: %w: %s", name, ErrCorrupt, fmt.Sprintf(format, args...))
	}
	if len(buf) < segFileHeaderSize {
		return corrupt("truncated file header (%d bytes)", len(buf))
	}
	if [4]byte(buf[:4]) != t.magic {
		return corrupt("bad magic %q", buf[:4])
	}
	if version := binary.LittleEndian.Uint16(buf[4:6]); version != t.version {
		return corrupt("unsupported format version %d (want %d)", version, t.version)
	}
	shard := int(binary.LittleEndian.Uint16(buf[6:8]))
	if shard >= topology.NumRacks {
		return corrupt("shard index %d out of range (racks: %d)", shard, topology.NumRacks)
	}
	nblocks := int(binary.LittleEndian.Uint32(buf[8:12]))
	off := segFileHeaderSize + int(binary.LittleEndian.Uint16(buf[12:14]))
	if len(buf) < off {
		return corrupt("truncated location name")
	}
	loc := loadLocation(string(buf[segFileHeaderSize:off]), int(int32(binary.LittleEndian.Uint32(buf[14:18]))))
	if nblocks <= 0 || nblocks > (len(buf)-segFileHeaderSize)/t.header {
		return corrupt("implausible block count %d for %d bytes", nblocks, len(buf))
	}

	blocks := make([]B, 0, nblocks)
	var lens []int
	var payloads [][]byte
	var prevEnd int64
	for i := 0; i < nblocks; i++ {
		if len(buf)-off < t.header {
			return corrupt("block %d: truncated header", i)
		}
		fields := buf[off : off+t.header-4]
		b := B(new(T))
		var err error
		if lens, err = b.getHeader(fields, lens[:0]); err != nil {
			return corrupt("block %d: %v", i, err)
		}
		first, end := b.span()
		if i > 0 && first < prevEnd {
			return corrupt("block %d: overlaps previous block", i)
		}
		prevEnd = end
		off += t.header
		payload := 0
		for _, n := range lens {
			payload += n
		}
		if len(buf)-off < payload {
			return corrupt("block %d: truncated payload (%d of %d bytes)", i, len(buf)-off, payload)
		}
		crc := crc32.Update(crc32.ChecksumIEEE(fields), crc32.IEEETable, buf[off:off+payload])
		if want := binary.LittleEndian.Uint32(buf[off-4 : off]); crc != want {
			return corrupt("block %d: checksum mismatch (got %08x, want %08x)", i, crc, want)
		}
		payloads = payloads[:0]
		for _, n := range lens {
			payloads = append(payloads, buf[off:off+n:off+n])
			off += n
		}
		if err := b.attach(payloads, origin(fmt.Sprintf("segment %s block %d", name, i))); err != nil {
			return corrupt("block %d: %v", i, err)
		}
		blocks = append(blocks, b)
	}
	if off != len(buf) {
		return corrupt("%d trailing bytes after last block", len(buf)-off)
	}
	return shard, blocks, loc, nil
}

// putChannels appends the (enc, scale, dataLen) triple of every channel.
func putChannels(h []byte, ch *[sensors.NumMetrics]channelData) []byte {
	for _, c := range ch {
		h = append(h, c.enc)
		h = binary.LittleEndian.AppendUint64(h, math.Float64bits(c.scale))
		h = binary.LittleEndian.AppendUint32(h, uint32(len(c.data)))
	}
	return h
}

// getChannels reads the triples putChannels wrote from h into ch, appends
// each channel's payload length to lens, and returns the bytes after them.
func getChannels(h []byte, ch *[sensors.NumMetrics]channelData, lens []int) ([]byte, []int) {
	for m := range ch {
		ch[m].enc = h[0]
		ch[m].scale = math.Float64frombits(binary.LittleEndian.Uint64(h[1:9]))
		lens = append(lens, int(binary.LittleEndian.Uint32(h[9:13])))
		h = h[13:]
	}
	return h, lens
}

// validScale reports whether an integer channel's scale is a positive
// finite number (NaN included in the rejects).
func validScale(scale float64) bool { return scale > 0 && !math.IsInf(scale, 1) }

func (b *sealedBlock) span() (int64, int64) { return b.minT, b.maxT }

// putHeader also seals b: a partition roll concurrent with the caller's
// last SealAll may have closed it since (a no-op otherwise).
func (b *sealedBlock) putHeader(h []byte) []byte {
	b.seal()
	h = binary.LittleEndian.AppendUint64(h, uint64(b.minT))
	h = binary.LittleEndian.AppendUint64(h, uint64(b.maxT))
	h = binary.LittleEndian.AppendUint32(h, uint32(b.count))
	h = binary.LittleEndian.AppendUint32(h, uint32(len(b.times)))
	h = putChannels(h, &b.ch)
	for _, z := range b.zones {
		h = binary.LittleEndian.AppendUint64(h, math.Float64bits(z.Min))
		h = binary.LittleEndian.AppendUint64(h, math.Float64bits(z.Max))
	}
	return h
}

func (b *sealedBlock) payloads(p [][]byte) [][]byte {
	p = append(p, b.times)
	for _, c := range b.ch {
		p = append(p, c.data)
	}
	return p
}

func (b *sealedBlock) getHeader(h []byte, lens []int) ([]int, error) {
	b.minT = int64(binary.LittleEndian.Uint64(h[0:8]))
	b.maxT = int64(binary.LittleEndian.Uint64(h[8:16]))
	b.count = int(binary.LittleEndian.Uint32(h[16:20]))
	timesLen := int(binary.LittleEndian.Uint32(h[20:24]))
	h, lens = getChannels(h[24:], &b.ch, append(lens, timesLen))
	for m := range b.zones {
		b.zones[m] = ZoneMap{math.Float64frombits(binary.LittleEndian.Uint64(h[0:8])), math.Float64frombits(binary.LittleEndian.Uint64(h[8:16]))}
		h = h[16:]
	}
	if b.count <= 0 {
		return nil, errors.New("empty block")
	}
	for m, z := range b.zones {
		// Valid zones are either ordered or the both-NaN "unusable"
		// sentinel; anything else is a mangled header the CRC would catch
		// anyway — reject it with a precise message first.
		if !z.usable() && !(math.IsNaN(z.Min) && math.IsNaN(z.Max)) {
			return nil, fmt.Errorf("channel %d: inverted zone map [%v, %v]", m, z.Min, z.Max)
		}
	}
	// Plausibility floor before any decoder allocates count-sized buffers:
	// delta-of-delta timestamps cost 64 bits for the first value and at
	// least one bit for each later one.
	if timesLen*8 < 63+b.count {
		return nil, fmt.Errorf("%d samples cannot fit in %d timestamp bytes", b.count, timesLen)
	}
	if b.minT > b.maxT {
		return nil, errors.New("inverted time bounds")
	}
	return lens, nil
}

func (b *sealedBlock) attach(p [][]byte, src origin) error {
	b.times, b.origin = p[0], src
	for m := range b.ch {
		c := &b.ch[m]
		c.data = p[1+m]
		switch c.enc {
		case encIntPacked:
			if !validScale(c.scale) {
				return fmt.Errorf("channel %d: invalid scale %v", m, c.scale)
			}
			// Packed groups cost at least their 7-bit width header.
			if groups := (b.count + packGroup - 1) / packGroup; len(c.data)*8 < groups*7 {
				return fmt.Errorf("channel %d: %d values cannot fit in %d bytes", m, b.count, len(c.data))
			}
		case encXOR:
			if len(c.data)*8 < 63+b.count { // 64-bit first value, ≥1 bit each after
				return fmt.Errorf("channel %d: %d values cannot fit in %d bytes", m, b.count, len(c.data))
			}
		default:
			return fmt.Errorf("channel %d: unknown encoding %d", m, c.enc)
		}
	}
	return nil
}

// span's end is the exclusive end of d's last window.
func (d *downBlock) span() (int64, int64) { return d.minT, d.maxT + d.window }

func (d *downBlock) putHeader(h []byte) []byte {
	h = binary.LittleEndian.AppendUint64(h, uint64(d.window))
	h = binary.LittleEndian.AppendUint64(h, uint64(d.minT))
	h = binary.LittleEndian.AppendUint64(h, uint64(d.maxT))
	h = binary.LittleEndian.AppendUint32(h, uint32(d.count))
	h = binary.LittleEndian.AppendUint64(h, uint64(d.srcRecords))
	h = binary.LittleEndian.AppendUint32(h, uint32(len(d.times)))
	h = binary.LittleEndian.AppendUint32(h, uint32(len(d.counts)))
	return putChannels(h, &d.ch)
}

func (d *downBlock) payloads(p [][]byte) [][]byte {
	p = append(p, d.times, d.counts)
	for _, c := range d.ch {
		p = append(p, c.data)
	}
	return p
}

func (d *downBlock) getHeader(h []byte, lens []int) ([]int, error) {
	d.window = int64(binary.LittleEndian.Uint64(h[0:8]))
	d.minT = int64(binary.LittleEndian.Uint64(h[8:16]))
	d.maxT = int64(binary.LittleEndian.Uint64(h[16:24]))
	d.count = int(binary.LittleEndian.Uint32(h[24:28]))
	d.srcRecords = int64(binary.LittleEndian.Uint64(h[28:36]))
	timesLen, countsLen := int(binary.LittleEndian.Uint32(h[36:40])), int(binary.LittleEndian.Uint32(h[40:44]))
	_, lens = getChannels(h[44:], &d.ch, append(lens, timesLen, countsLen))
	switch {
	case d.window <= 0:
		return nil, fmt.Errorf("invalid window %d", d.window)
	case d.count <= 0:
		return nil, errors.New("empty block")
	case timesLen*8 < 63+d.count:
		return nil, fmt.Errorf("%d windows cannot fit in %d timestamp bytes", d.count, timesLen)
	case countsLen*8 < d.count:
		return nil, fmt.Errorf("%d windows cannot fit in %d count bytes", d.count, countsLen)
	case d.srcRecords < int64(d.count):
		return nil, fmt.Errorf("%d source records for %d windows", d.srcRecords, d.count)
	case d.minT > d.maxT:
		return nil, errors.New("inverted time bounds")
	case d.minT != floorDiv(d.minT, d.window)*d.window || d.maxT != floorDiv(d.maxT, d.window)*d.window:
		return nil, fmt.Errorf("bounds not aligned to %dns windows", d.window)
	case d.maxT > math.MaxInt64-d.window:
		// span, the overlap check and Open's watermark all add the window.
		return nil, fmt.Errorf("last window [%d, +%d) ends past the int64 range", d.maxT, d.window)
	}
	return lens, nil
}

func (d *downBlock) attach(p [][]byte, src origin) error {
	d.times, d.counts, d.origin = p[0], p[1], src
	for m := range d.ch {
		d.ch[m].data = p[2+m]
		switch d.ch[m].enc {
		case encInt:
			if !validScale(d.ch[m].scale) {
				return fmt.Errorf("channel %d: invalid scale %v", m, d.ch[m].scale)
			}
		case encXOR:
		default:
			return fmt.Errorf("channel %d: unknown encoding %d", m, d.ch[m].enc)
		}
	}
	return nil
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
