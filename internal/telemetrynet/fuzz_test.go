package telemetrynet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

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
	cw := newChunkWriter(&chunked, true, -21600)
	for _, r := range wireTrace(6) {
		cw.add(r, 1)
	}
	cw.close()
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
		err := readChunkStream(bytes.NewReader(data), func(sensors.Record, byte) bool { return true })
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
