package telemetrynet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/topology"
)

// FuzzDecodeIngestFrame pins the wire decoders' corruption contract:
// arbitrary bytes — hostile, bit-flipped, or truncated — decode to a valid
// value, a clean io.EOF, or a wrapped ErrFrame. Never a panic, and never a
// runaway allocation (the count/length caps bound every make). The chunk-
// stream reader is exercised on the same corpus since both parsers face
// the network.
func FuzzDecodeIngestFrame(f *testing.F) {
	valid := encodeIngestFrame(nil, 77, 3, wireTrace(4))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0x80
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("MTN2 but not really a frame"))
	// Well-formed messages of the retired generation (narrow rack byte,
	// valid CRCs): refused on the magic, never parsed at the wrong width.
	f.Add(retiredIngestFrame(76, 2, wireTrace(4)))
	f.Add(retiredChunkStream(wireTrace(6)))
	var chunked bytes.Buffer
	writeRows(f, &chunked, true, traceChunk(wireTrace(6)))
	f.Add(chunked.Bytes())

	// Overflow-adjacent headers: counts at and beyond every cap, including a
	// count whose count*recordSize product wraps 32-bit arithmetic to a
	// small, internally consistent payload length. frameLen must reject all
	// of these on the count itself, before any length math can wrap.
	hugeCount := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(hugeCount[24:], 0xFFFFFFFF)
	f.Add(hugeCount)
	wrapped := append([]byte(nil), valid...)
	c := uint32(0xFFFFFFFF)
	binary.LittleEndian.PutUint32(wrapped[24:], c)
	binary.LittleEndian.PutUint32(wrapped[4:], c*uint32(recordSize)) // 32-bit wrapped product
	f.Add(wrapped)
	offByOne := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(offByOne[24:], maxFrameRecords+1)
	binary.LittleEndian.PutUint32(offByOne[4:], (maxFrameRecords+1)*uint32(recordSize))
	f.Add(offByOne)
	hugeChunk := append([]byte(nil), chunked.Bytes()[:12]...)
	hugeChunk = binary.LittleEndian.AppendUint32(hugeChunk, 0xFFFFFFFF)
	f.Add(hugeChunk)

	// Fleet frames: a whole valid frame addressing halls above 0, a frame
	// carrying the widest encodable rack code, a frame truncated
	// mid-record, two frames back to back on one connection, and a frame
	// whose first rack code is mangled.
	fleetRecs := wireTrace(4)
	for i := range fleetRecs {
		fleetRecs[i].Rack.Hall = 1 + i%3
	}
	validFleet := encodeIngestFrame(nil, 78, 4, fleetRecs)
	f.Add(validFleet)
	wideRecs := wireTrace(1)[:1]
	wideRecs[0].Rack = topology.RackID{Row: topology.Rows - 1, Col: topology.ColsPerRow - 1, Hall: topology.MaxHalls - 1}
	f.Add(encodeIngestFrame(nil, 79, 5, wideRecs))
	f.Add(validFleet[:ingestHeaderSize+recordSize/2])
	f.Add(append(append([]byte(nil), valid...), validFleet...))
	flippedRack := append([]byte(nil), validFleet...)
	flippedRack[ingestHeaderSize] ^= 0xFF // rack-code byte of the first record
	f.Add(flippedRack)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			_, err := decodeIngestFrame(r)
			if err == nil {
				continue
			}
			if err != io.EOF && !errors.Is(err, ErrFrame) {
				t.Fatalf("decodeIngestFrame: %v is neither io.EOF nor ErrFrame", err)
			}
			break
		}
		err := readRecords(bytes.NewReader(data), func(sensors.Record, byte) bool { return true })
		if err != nil && !errors.Is(err, ErrFrame) {
			t.Fatalf("readChunkStream: %v is not ErrFrame", err)
		}
		if _, _, err := decodeSeries(bytes.NewReader(data)); err != nil && !errors.Is(err, ErrFrame) {
			t.Fatalf("decodeSeries: %v is not ErrFrame", err)
		}
		if _, _, err := decodeAggs(bytes.NewReader(data)); err != nil && !errors.Is(err, ErrFrame) {
			t.Fatalf("decodeAggs: %v is not ErrFrame", err)
		}
	})
}

// FuzzReadChunkStream pins the column decoder behind every client read:
// arbitrary bytes decode to chunks whose every row materializes, or to a
// wrapped ErrFrame. Never a panic — in particular no rack code that
// Chunk.Record would panic on may reach a chunk.
func FuzzReadChunkStream(f *testing.F) {
	recs := wireTrace(9)
	for i := range recs {
		recs[i].Rack.Hall = i % 3
	}
	var valid bytes.Buffer
	writeRows(f, &valid, true, traceChunk(recs))
	stream := valid.Bytes()
	f.Add(stream)
	f.Add(stream[:len(stream)-6]) // truncated inside the terminator
	badCRC := append([]byte(nil), stream...)
	badCRC[12+4+recordSize+3] ^= 0x01 // a value byte of the second record
	f.Add(badCRC)
	// A bad rack code under a valid CRC: only the decoder's own check
	// stands between it and Chunk.Record.
	badRack := append([]byte(nil), stream[:12]...)
	chunk := binary.LittleEndian.AppendUint32(nil, 1)
	row := appendRecord(nil, wireTrace(1)[0])
	binary.LittleEndian.PutUint16(row, 0xFFFF)
	chunk = append(append(chunk, row...), 0)
	badRack = append(badRack, binary.LittleEndian.AppendUint32(chunk, crc32.ChecksumIEEE(chunk))...)
	end := binary.LittleEndian.AppendUint32(nil, 0)
	badRack = append(badRack, binary.LittleEndian.AppendUint32(end, crc32.ChecksumIEEE(end))...)
	f.Add(badRack)

	f.Fuzz(func(t *testing.T, data []byte) {
		err := readChunkStream(bytes.NewReader(data), new(envdb.Chunk), func(c *envdb.Chunk) bool {
			for i := 0; i < c.Len(); i++ {
				c.Record(i)
			}
			return true
		})
		if err != nil && !errors.Is(err, ErrFrame) {
			t.Fatalf("readChunkStream: %v is not ErrFrame", err)
		}
	})
}

// FuzzDecodeAggs pins the two fixed-frame decoders the client runs on
// every pushdown response — up to 48 × k windows for a hall-wide
// AggregateRacks — and every Series read: arbitrary bytes decode, as an
// aggregate frame and as a series frame, to a wrapped ErrFrame or to
// values that re-encode to exactly the bytes read, so every float bit
// pattern (NaN payloads, −0) survives the wire.
func FuzzDecodeAggs(f *testing.F) {
	frame := func(zoneOff int32, aggs []windowAgg) []byte {
		var b bytes.Buffer
		encodeAggs(&b, zoneOff, aggs)
		return b.Bytes()
	}
	series := func(zoneOff int32, times []time.Time, vals []float64) []byte {
		var b bytes.Buffer
		encodeSeries(&b, zoneOff, times, vals)
		return b.Bytes()
	}
	hall := make([]windowAgg, topology.NumRacks*5)
	for i := range hall {
		v := 60 + float64(i)/8
		hall[i] = windowAgg{startN: 1420092000e9, count: int64(17000 + i), min: v - 1, max: v + 1, sum: v * float64(17000+i)}
	}
	valid := frame(-21600, hall)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0x01
	f.Add(badCRC)
	for _, n := range []uint32{aggFrame.max, aggFrame.max + 1} {
		huge := append([]byte(nil), valid[:12]...)
		binary.LittleEndian.PutUint32(huge[8:], n)
		f.Add(huge)
	}
	f.Add(frame(3600, []windowAgg{
		{startN: -1, count: 0, min: math.NaN(), max: math.Float64frombits(0x7ff8_0000_dead_beef), sum: math.Copysign(0, -1)},
		{startN: math.MaxInt64, count: math.MaxInt64, min: math.Inf(-1), max: math.Inf(1), sum: math.Float64frombits(0xfff0_0000_0000_0001)},
	}))
	f.Add(frame(0, nil))
	cst := time.FixedZone("CST", -21600)
	f.Add(series(-21600,
		[]time.Time{time.Unix(0, 1420092000e9).In(cst), time.Unix(0, -1).In(cst), time.Unix(0, math.MaxInt64).In(cst)},
		[]float64{math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef), math.Copysign(0, -1)}))
	f.Add(series(0, []time.Time{time.Unix(0, 0).UTC()}, []float64{math.Float64frombits(0xfff0_0000_0000_0001)}))
	f.Add(series(3600, nil, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		if aggs, loc, err := decodeAggs(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, ErrFrame) {
				t.Fatalf("decodeAggs: %v is not ErrFrame", err)
			}
		} else {
			_, off := time.Unix(0, 0).In(loc).Zone()
			if again := frame(int32(off), aggs); !bytes.Equal(again, data[:len(again)]) {
				t.Fatalf("%d windows re-encode to different bytes", len(aggs))
			}
		}
		times, vals, err := decodeSeries(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrFrame) {
				t.Fatalf("decodeSeries: %v is not ErrFrame", err)
			}
			return
		}
		// The zone travels only in the points' times, so a series with
		// none is compared on everything but the zone field.
		var off int32
		if len(times) > 0 {
			off = zoneOffset(times[0])
		} else {
			off = int32(binary.LittleEndian.Uint32(data[4:]))
		}
		if again := series(off, times, vals); !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("%d points re-encode to different bytes", len(times))
		}
	})
}
