// Package telemetrynet is the network telemetry service of the digital
// twin: the wire protocol, HTTP server, and envdb.DB client that split the
// paper's monitoring pipeline (§III) across processes. Remote simulators
// push length-prefixed binary frames of coolant-monitor records into a
// central store (miramon -serve), and analyses query the same store over
// the wire through a client that satisfies the envdb.DB and
// envdb.Aggregator surfaces — so every existing consumer works unchanged
// against a live remote store.
//
// The wire format is documented in DESIGN.md §7. In short: an ingest frame
// is a fixed 32-byte header (magic, payload length, client ID, batch
// sequence, record count, zone offset) followed by 58-byte fixed-width
// records and an IEEE CRC32 over header+payload. The (client ID, sequence)
// pair makes retried pushes idempotent: the server remembers the highest
// sequence applied per client and drops replays. Query responses reuse the
// record encoding in CRC-checked chunks, and float64 channels travel as
// raw bit patterns, so remote reads are bit-identical to in-process reads.
package telemetrynet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"mira/internal/sensors"
	"mira/internal/topology"
	"mira/internal/units"
)

// ErrFrame marks every malformed-input failure of the wire decoders: bad
// magic, inconsistent lengths, out-of-range racks, truncation, checksum
// mismatch. Like tsdb.ErrCorrupt for segment files, arbitrary bytes must
// decode to a wrapped ErrFrame or a valid value — never a panic (pinned by
// FuzzDecodeIngestFrame).
var ErrFrame = errors.New("telemetrynet: malformed frame")

const (
	// The magics version the wire format; any incompatible change mints new
	// ones, and there is one generation of each message. The previous ingest
	// frame and chunk stream, whose records carried a uint8 rack index that
	// could only address hall 0, are retired: no such client or server
	// exists, and their magics decode to ErrFrame like any unknown one.
	ingestMagicV2 = 0x324E544D // "MTN2": ingest frame
	chunkMagic    = 0x3252544D // "MTR2": record-chunk stream header
	seriesMagic   = 0x534E544D // "MTNS": series response
	aggMagic      = 0x414E544D // "MTNA": aggregate response

	// recordSize is the fixed encoding of one sensors.Record: packed rack
	// code (uint16, topology.RackID.Code: hall high byte, within-hall index
	// low byte), UnixNano timestamp (int64), six float64 channel bit
	// patterns. Little-endian throughout.
	recordSize = 2 + 8 + 8*int(sensors.NumMetrics)

	// ingestHeaderSize: magic, payloadLen, clientID, seq, count, zoneOff.
	ingestHeaderSize = 4 + 4 + 8 + 8 + 4 + 4

	// maxFrameRecords bounds one ingest frame; together with the payload
	// length check it caps the allocation a hostile frame can request.
	maxFrameRecords = 1 << 20
	// maxChunkRecords bounds one response chunk.
	maxChunkRecords = 1 << 16
	// maxSeriesPoints and maxAggWindows bound single-shot response decodes.
	maxSeriesPoints = 1 << 26
	maxAggWindows   = 1 << 24
)

func frameErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFrame, fmt.Sprintf(format, args...))
}

// frameLen converts a wire-supplied element count into the byte length
// count*size+extra. The cap check happens here, before the multiply, and
// the arithmetic is 64-bit throughout, so a hostile count near 2^32 can
// never wrap a length computation — the invariant holds even if a caller's
// own bounds check is later reordered or relaxed. Every decoder that sizes
// a read from a wire count goes through this.
func frameLen(kind string, count uint32, size, extra int, maxElems uint32) (int, error) {
	if count > maxElems {
		return 0, frameErr("%s count %d exceeds %d", kind, count, maxElems)
	}
	n := int64(count)*int64(size) + int64(extra)
	if n > math.MaxInt32 {
		return 0, frameErr("%s length %d overflows frame bounds", kind, n)
	}
	return int(n), nil
}

// readBody reads exactly need bytes, growing the buffer in 1 MiB steps so
// a hostile header declaring a huge length cannot demand the allocation up
// front — memory grows only as fast as bytes actually arrive.
func readBody(r io.Reader, need int) ([]byte, error) {
	const step = 1 << 20
	cap0 := need
	if cap0 > step {
		cap0 = step
	}
	body := make([]byte, 0, cap0)
	for len(body) < need {
		n := need - len(body)
		if n > step {
			n = step
		}
		off := len(body)
		body = append(body, make([]byte, n)...)
		if _, err := io.ReadFull(r, body[off:]); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// zoneOffset extracts the fixed UTC offset (seconds) of t's location.
// Calendar bucketing downstream (monthly figures) depends on the zone, so
// the wire carries it and both ends reconstruct instants in the same
// offset; the zone's name is cosmetic and does not travel.
func zoneOffset(t time.Time) int32 {
	_, off := t.Zone()
	return int32(off)
}

// zoneLocation reconstructs a *time.Location from a wire offset.
func zoneLocation(off int32) *time.Location {
	if off == 0 {
		return time.UTC
	}
	return time.FixedZone("wire", int(off))
}

func appendRecord(buf []byte, r sensors.Record) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, r.Rack.Code())
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Time.UnixNano()))
	for m := 0; m < int(sensors.NumMetrics); m++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Value(sensors.Metric(m))))
	}
	return buf
}

// decodeRecord decodes one fixed-width record; b must hold recordSize bytes.
func decodeRecord(b []byte, loc *time.Location) (sensors.Record, error) {
	rack, err := topology.RackFromCode(binary.LittleEndian.Uint16(b))
	if err != nil {
		return sensors.Record{}, frameErr("%v", err)
	}
	var vals [sensors.NumMetrics]float64
	for m := range vals {
		vals[m] = math.Float64frombits(binary.LittleEndian.Uint64(b[10+8*m:]))
	}
	return recordFromValues(rack,
		time.Unix(0, int64(binary.LittleEndian.Uint64(b[2:]))).In(loc), vals), nil
}

// recordFromValues assembles a Record from its six channel values in
// sensors.Metric order — the inverse of Record.Value.
func recordFromValues(rack topology.RackID, t time.Time, vals [sensors.NumMetrics]float64) sensors.Record {
	return sensors.Record{
		Time:          t,
		Rack:          rack,
		DCTemperature: units.Fahrenheit(vals[sensors.MetricDCTemperature]),
		DCHumidity:    units.RelativeHumidity(vals[sensors.MetricDCHumidity]),
		Flow:          units.GPM(vals[sensors.MetricFlow]),
		InletTemp:     units.Fahrenheit(vals[sensors.MetricInletTemp]),
		OutletTemp:    units.Fahrenheit(vals[sensors.MetricOutletTemp]),
		Power:         units.Watts(vals[sensors.MetricPower]),
	}
}

// ingestFrame is one decoded push batch.
type ingestFrame struct {
	ClientID uint64
	Seq      uint64
	Records  []sensors.Record
}

// encodeIngestFrame appends one ingest frame for recs to buf. The zone
// offset is taken from the first record (one simulator feeds one frame, so
// a batch never mixes zones).
func encodeIngestFrame(buf []byte, clientID, seq uint64, recs []sensors.Record) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, ingestMagicV2)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)*recordSize))
	buf = binary.LittleEndian.AppendUint64(buf, clientID)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(zoneOffset(recs[0].Time)))
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// decodeIngestFrame reads one frame from r. A clean end of stream returns
// io.EOF; truncation mid-frame, a bad magic, inconsistent lengths, or a
// checksum mismatch return a wrapped ErrFrame.
func decodeIngestFrame(r io.Reader) (ingestFrame, error) {
	var hdr [ingestHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return ingestFrame{}, io.EOF
		}
		return ingestFrame{}, frameErr("reading header: %v", err)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return ingestFrame{}, frameErr("reading header: %v", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != ingestMagicV2 {
		return ingestFrame{}, frameErr("bad magic %#x", m)
	}
	payloadLen := binary.LittleEndian.Uint32(hdr[4:])
	clientID := binary.LittleEndian.Uint64(hdr[8:])
	seq := binary.LittleEndian.Uint64(hdr[16:])
	count := binary.LittleEndian.Uint32(hdr[24:])
	zoneOff := int32(binary.LittleEndian.Uint32(hdr[28:]))
	if count == 0 || count > maxFrameRecords {
		return ingestFrame{}, frameErr("record count %d out of range [1, %d]", count, maxFrameRecords)
	}
	need, err := frameLen("record", count, recordSize, 4, maxFrameRecords)
	if err != nil {
		return ingestFrame{}, err
	}
	if int64(payloadLen) != int64(need)-4 {
		return ingestFrame{}, frameErr("payload length %d does not match %d records", payloadLen, count)
	}
	body, err := readBody(r, need)
	if err != nil {
		return ingestFrame{}, frameErr("reading %d-byte payload: %v", payloadLen, err)
	}
	sum := crc32.ChecksumIEEE(hdr[:])
	sum = crc32.Update(sum, crc32.IEEETable, body[:payloadLen])
	if got := binary.LittleEndian.Uint32(body[payloadLen:]); got != sum {
		return ingestFrame{}, frameErr("checksum mismatch: frame %#x, computed %#x", got, sum)
	}
	loc := zoneLocation(zoneOff)
	recs := make([]sensors.Record, count)
	for i := range recs {
		var err error
		recs[i], err = decodeRecord(body[i*recordSize:], loc)
		if err != nil {
			return ingestFrame{}, fmt.Errorf("record %d: %w", i, err)
		}
	}
	return ingestFrame{ClientID: clientID, Seq: seq, Records: recs}, nil
}

// chunkWriter streams records as CRC-checked chunks: a 12-byte stream
// header (magic, flags, zone offset) followed by chunks of
// [count uint32 | payload | crc32], terminated by a zero-count chunk whose
// CRC covers just the count. Flag bit 0 marks tiered records (one
// envdb.Tier byte appended to each record).
type chunkWriter struct {
	w       io.Writer
	buf     []byte
	count   uint32
	tiered  bool
	started bool
	zoneOff int32
}

const chunkFlagTiered = 1

func newChunkWriter(w io.Writer, tiered bool, zoneOff int32) *chunkWriter {
	return &chunkWriter{w: w, tiered: tiered, zoneOff: zoneOff}
}

func (cw *chunkWriter) header() []byte {
	var flags uint32
	if cw.tiered {
		flags |= chunkFlagTiered
	}
	hdr := binary.LittleEndian.AppendUint32(nil, chunkMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, flags)
	return binary.LittleEndian.AppendUint32(hdr, uint32(cw.zoneOff))
}

func (cw *chunkWriter) add(r sensors.Record, tier byte) error {
	if !cw.started {
		cw.started = true
		if _, err := cw.w.Write(cw.header()); err != nil {
			return err
		}
		cw.buf = binary.LittleEndian.AppendUint32(cw.buf[:0], 0) // count placeholder
	}
	cw.buf = appendRecord(cw.buf, r)
	if cw.tiered {
		cw.buf = append(cw.buf, tier)
	}
	cw.count++
	if cw.count >= maxChunkRecords {
		return cw.flushChunk()
	}
	return nil
}

func (cw *chunkWriter) flushChunk() error {
	if cw.count == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(cw.buf[:4], cw.count)
	cw.buf = binary.LittleEndian.AppendUint32(cw.buf, crc32.ChecksumIEEE(cw.buf))
	_, err := cw.w.Write(cw.buf)
	cw.buf = binary.LittleEndian.AppendUint32(cw.buf[:0], 0)
	cw.count = 0
	return err
}

// close flushes the pending chunk and writes the zero-count terminator, so
// the reader can tell a complete stream from a truncated one.
func (cw *chunkWriter) close() error {
	if !cw.started {
		cw.started = true
		if _, err := cw.w.Write(cw.header()); err != nil {
			return err
		}
	}
	if err := cw.flushChunk(); err != nil {
		return err
	}
	end := binary.LittleEndian.AppendUint32(nil, 0)
	end = binary.LittleEndian.AppendUint32(end, crc32.ChecksumIEEE(end[:4]))
	_, err := cw.w.Write(end)
	return err
}

// readChunkStream decodes a chunk stream, invoking f for each record until
// the terminator chunk or f returns false (early stop: the remaining body
// is abandoned, not decoded). Returns a wrapped ErrFrame on any malformed
// or truncated input.
func readChunkStream(r io.Reader, f func(rec sensors.Record, tier byte) bool) error {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frameErr("reading stream header: %v", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != chunkMagic {
		return frameErr("bad stream magic %#x", m)
	}
	tiered := binary.LittleEndian.Uint32(hdr[4:])&chunkFlagTiered != 0
	loc := zoneLocation(int32(binary.LittleEndian.Uint32(hdr[8:])))
	size := recordSize
	if tiered {
		size++
	}
	var chunk []byte
	for {
		var cntBuf [4]byte
		if _, err := io.ReadFull(r, cntBuf[:]); err != nil {
			return frameErr("reading chunk count: %v", err)
		}
		count := binary.LittleEndian.Uint32(cntBuf[:])
		need, err := frameLen("chunk", count, size, 4, maxChunkRecords)
		if err != nil {
			return err
		}
		if cap(chunk) < need {
			chunk = make([]byte, need)
		}
		chunk = chunk[:need]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return frameErr("reading %d-record chunk: %v", count, err)
		}
		sum := crc32.ChecksumIEEE(cntBuf[:])
		sum = crc32.Update(sum, crc32.IEEETable, chunk[:need-4])
		if got := binary.LittleEndian.Uint32(chunk[need-4:]); got != sum {
			return frameErr("chunk checksum mismatch: stream %#x, computed %#x", got, sum)
		}
		if count == 0 {
			return nil // terminator
		}
		for i := 0; i < int(count); i++ {
			rec, err := decodeRecord(chunk[i*size:], loc)
			if err != nil {
				return err
			}
			var tier byte
			if tiered {
				tier = chunk[i*size+recordSize]
			}
			if !f(rec, tier) {
				return nil
			}
		}
	}
}

// encodeSeries writes a series response: times as UnixNano, values as raw
// float64 bits, one CRC over the whole message.
func encodeSeries(w io.Writer, zoneOff int32, times []time.Time, vals []float64) error {
	buf := binary.LittleEndian.AppendUint32(nil, seriesMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(zoneOff))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(times)))
	for _, t := range times {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.UnixNano()))
	}
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	_, err := w.Write(buf)
	return err
}

func decodeSeries(r io.Reader) ([]time.Time, []float64, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, frameErr("reading series header: %v", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != seriesMagic {
		return nil, nil, frameErr("bad series magic %#x", m)
	}
	loc := zoneLocation(int32(binary.LittleEndian.Uint32(hdr[4:])))
	count := binary.LittleEndian.Uint32(hdr[8:])
	need, err := frameLen("series", count, 16, 4, maxSeriesPoints)
	if err != nil {
		return nil, nil, err
	}
	body, err := readBody(r, need)
	if err != nil {
		return nil, nil, frameErr("reading %d-point series: %v", count, err)
	}
	sum := crc32.ChecksumIEEE(hdr[:])
	sum = crc32.Update(sum, crc32.IEEETable, body[:len(body)-4])
	if got := binary.LittleEndian.Uint32(body[len(body)-4:]); got != sum {
		return nil, nil, frameErr("series checksum mismatch: got %#x, computed %#x", got, sum)
	}
	times := make([]time.Time, count)
	vals := make([]float64, count)
	for i := range times {
		times[i] = time.Unix(0, int64(binary.LittleEndian.Uint64(body[i*8:]))).In(loc)
	}
	off := int(count) * 8
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[off+i*8:]))
	}
	return times, vals, nil
}

// encodeAggs writes an aggregate response: per window, start (UnixNano),
// count, and min/max/sum as raw float64 bits — bit-exact pushdown results.
func encodeAggs(w io.Writer, zoneOff int32, aggs []windowAgg) error {
	buf := binary.LittleEndian.AppendUint32(nil, aggMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(zoneOff))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(aggs)))
	for _, a := range aggs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(a.startN))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(a.count))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.min))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.max))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.sum))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	_, err := w.Write(buf)
	return err
}

// windowAgg is the wire form of envdb.WindowAgg.
type windowAgg struct {
	startN int64
	count  int64
	min    float64
	max    float64
	sum    float64
}

const aggEntrySize = 8 * 5

func decodeAggs(r io.Reader) ([]windowAgg, *time.Location, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, frameErr("reading aggregate header: %v", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != aggMagic {
		return nil, nil, frameErr("bad aggregate magic %#x", m)
	}
	loc := zoneLocation(int32(binary.LittleEndian.Uint32(hdr[4:])))
	count := binary.LittleEndian.Uint32(hdr[8:])
	need, err := frameLen("aggregate", count, aggEntrySize, 4, maxAggWindows)
	if err != nil {
		return nil, nil, err
	}
	body, err := readBody(r, need)
	if err != nil {
		return nil, nil, frameErr("reading %d-window aggregate: %v", count, err)
	}
	sum := crc32.ChecksumIEEE(hdr[:])
	sum = crc32.Update(sum, crc32.IEEETable, body[:len(body)-4])
	if got := binary.LittleEndian.Uint32(body[len(body)-4:]); got != sum {
		return nil, nil, frameErr("aggregate checksum mismatch: got %#x, computed %#x", got, sum)
	}
	out := make([]windowAgg, count)
	for i := range out {
		b := body[i*aggEntrySize:]
		out[i] = windowAgg{
			startN: int64(binary.LittleEndian.Uint64(b[0:])),
			count:  int64(binary.LittleEndian.Uint64(b[8:])),
			min:    math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
			max:    math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
			sum:    math.Float64frombits(binary.LittleEndian.Uint64(b[32:])),
		}
	}
	return out, loc, nil
}
