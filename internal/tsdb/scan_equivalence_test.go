package tsdb

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/telemetrynet"
	"mira/internal/timeutil"
	"mira/internal/topology"
)

// tieredRecord is one row of a merged scan with its storage tier.
type tieredRecord struct {
	r    sensors.Record
	tier envdb.Tier
}

// scanReference is the merged scan's contract written out in test code:
// the store's per-rack Query reads (rackMajor), each rack's leading
// cold-tier rows marked downsampled, stable-sorted by (instant, rack
// code). Nothing of the merge itself is reused.
func scanReference(s *Store) []tieredRecord {
	cold := map[uint16]int{}
	for i := range s.shards {
		for _, d := range s.shards[i].cold {
			cold[s.fleet.RackAt(i).Code()] += d.count
		}
	}
	var out []tieredRecord
	seen := map[uint16]int{}
	for _, r := range rackMajor(s, s.fleet) {
		code := r.Rack.Code()
		tier := envdb.TierRaw
		if seen[code] < cold[code] {
			tier = envdb.TierDownsampled
		}
		seen[code]++
		out = append(out, tieredRecord{r, tier})
	}
	sort.SliceStable(out, func(a, b int) bool {
		ta, tb := out[a].r.Time.UnixNano(), out[b].r.Time.UnixNano()
		if ta != tb {
			return ta < tb
		}
		return out[a].r.Rack.Code() < out[b].r.Rack.Code()
	})
	return out
}

// scanShape is one store layout of the equivalence table. build returns
// the compressed store; slice reports whether the layout also fits the
// hall-0, raw-only slice store, which is then filled with the reference
// rows; corrupt marks a layout whose scan must fail.
type scanShape struct {
	name    string
	build   func(t *testing.T) *Store
	slice   bool
	corrupt bool
}

var scanShapes = []scanShape{
	{name: "tick-aligned", slice: true, build: func(t *testing.T) *Store {
		s := NewStoreWith(Options{Partition: 6 * time.Hour})
		fill(t, 300, topology.AllRacks(), s)
		return s
	}},
	{name: "disjoint-ranges", slice: true, build: func(t *testing.T) *Store {
		// Each rack holds its own stretch of time, so one stream at a time
		// owns the minimum for thousands of rows.
		s := NewStoreWith(Options{Partition: 6 * time.Hour})
		rng := rand.New(rand.NewSource(3))
		for k, rack := range []topology.RackID{{Row: 2, Col: 3}, {Row: 0, Col: 9}, {Row: 1, Col: 0}} {
			for i := 0; i < 3000; i++ {
				ts := base.Add(time.Duration(k*3000+i) * timeutil.SampleInterval)
				if err := s.Append(synthRecord(rng, rack, ts)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s
	}},
	{name: "equal-timestamps-across-seal", slice: true, build: func(t *testing.T) *Store {
		s := NewStoreWith(Options{Partition: 24 * time.Hour})
		rng := rand.New(rand.NewSource(5))
		racks := []topology.RackID{{Row: 0, Col: 1}, {Row: 0, Col: 2}}
		ts := base
		for i := 0; i < 40; i++ {
			for _, rack := range racks {
				if err := s.Append(synthRecord(rng, rack, ts)); err != nil {
					t.Fatal(err)
				}
			}
			if i == 19 {
				s.SealAll() // the next appends repeat this timestamp
				continue
			}
			ts = ts.Add(timeutil.SampleInterval)
		}
		return s
	}},
	{name: "cold-tier", build: func(t *testing.T) *Store {
		s := NewStoreWith(Options{Partition: 6 * time.Hour, Retention: 12 * time.Hour})
		fill(t, 600, []topology.RackID{{Row: 0, Col: 0}, {Row: 1, Col: 9}, {Row: 2, Col: 4}}, s)
		if _, err := s.Compact(""); err != nil {
			t.Fatal(err)
		}
		return s
	}},
	{name: "two-halls", build: func(t *testing.T) *Store {
		fleet := topology.Fleet{Halls: 2, Racks: 5}
		s := NewStoreWith(Options{Partition: 6 * time.Hour, Fleet: fleet})
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 200; i++ {
			ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
			for g := 0; g < fleet.NumRacks(); g++ {
				if err := s.Append(synthRecord(rng, fleet.RackAt(g), ts)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s
	}},
	{name: "empty", slice: true, build: func(*testing.T) *Store { return NewStore() }},
	{name: "corrupt-block", corrupt: true, build: func(t *testing.T) *Store {
		s := NewStoreWith(Options{Partition: 6 * time.Hour})
		rack := topology.RackID{Row: 1, Col: 1}
		fill(t, 500, []topology.RackID{rack, {Row: 2, Col: 2}}, s)
		s.SealAll()
		s.shards[rack.Index()].sealed[0].times = []byte{0xff, 0xff, 0xff}
		return s
	}},
}

// scanChunks runs db's merged scan, materializing every row with its tier.
func scanChunks(db envdb.DB, workers int) ([]tieredRecord, error) {
	var out []tieredRecord
	err := db.EachChunkMergedCtx(context.Background(), workers, func(c *envdb.Chunk) bool {
		for i := 0; i < c.Len(); i++ {
			out = append(out, tieredRecord{c.Record(i), c.Tiers[i]})
		}
		return true
	})
	return out, err
}

// TestScanEquivalence is the merged scan's correctness table: every store
// shape, through the compressed store, the slice store and the remote
// client over HTTP (serving either), at one and four workers, must yield
// the reference rows bit for bit — instants and their zone, racks, float
// bits, tiers — stop cleanly when the consumer stops, and fail with an
// error, never a panic, on a corrupt block.
func TestScanEquivalence(t *testing.T) {
	for _, shape := range scanShapes {
		t.Run(shape.name, func(t *testing.T) {
			s := shape.build(t)
			var want []tieredRecord
			if !shape.corrupt {
				want = scanReference(s)
			}
			stores := map[string]envdb.DB{"tsdb": s}
			servers := map[string]envdb.DB{"client/tsdb": s}
			if shape.slice {
				slice := &envdb.Store{}
				for _, tr := range want {
					if err := slice.Append(tr.r); err != nil {
						t.Fatal(err)
					}
				}
				stores["slice"] = slice
				servers["client/slice"] = slice
			}
			for name, db := range servers {
				srv := httptest.NewServer(telemetrynet.NewServer(db, telemetrynet.ServerOptions{}).Handler())
				t.Cleanup(srv.Close)
				stores[name] = telemetrynet.NewClient(srv.URL, telemetrynet.ClientOptions{})
			}
			for name, db := range stores {
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%s workers=%d", name, workers)
					got, err := scanChunks(db, workers)
					if shape.corrupt {
						if err == nil {
							t.Fatalf("%s: scan over a corrupt block returned no error", label)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameTiered(t, label, got, want)
					checkEarlyStop(t, label, db, workers, len(want))
				}
			}
		})
	}
}

// sameTiered requires bit-identical rows and equal tiers.
func sameTiered(t *testing.T, label string, got, want []tieredRecord) {
	t.Helper()
	g := make([]sensors.Record, len(got))
	w := make([]sensors.Record, len(want))
	for i := range got {
		g[i] = got[i].r
	}
	for i := range want {
		w[i] = want[i].r
	}
	sameRecords(t, label, g, w)
	for i := range want {
		if got[i].tier != want[i].tier {
			t.Fatalf("%s: row %d tier %v, want %v", label, i, got[i].tier, want[i].tier)
		}
	}
}

// checkEarlyStop stops the chunk scan after its first chunk and the row
// view after a few rows: both must return cleanly having delivered exactly
// that much.
func checkEarlyStop(t *testing.T, label string, db envdb.DB, workers, rows int) {
	t.Helper()
	chunks := 0
	if err := db.EachChunkMergedCtx(context.Background(), workers, func(c *envdb.Chunk) bool {
		if c.Len() == 0 {
			t.Fatalf("%s: empty chunk delivered", label)
		}
		chunks++
		return false
	}); err != nil {
		t.Fatalf("%s: stopped chunk scan: %v", label, err)
	}
	if wantChunks := min(rows, 1); chunks != wantChunks {
		t.Fatalf("%s: stopped chunk scan made %d callbacks, want %d", label, chunks, wantChunks)
	}
	const stopAt = 7
	n := 0
	if err := envdb.ScanRecords(context.Background(), db, workers, func(sensors.Record, envdb.Tier) bool {
		n++
		return n < stopAt
	}); err != nil {
		t.Fatalf("%s: stopped row scan: %v", label, err)
	}
	if want := min(rows, stopAt); n != want {
		t.Fatalf("%s: stopped row scan visited %d rows, want %d", label, n, want)
	}
}

// scanWireCRC is the IEEE CRC32 of the /v1/scan?order=time&tiers=1 body
// served for wireFixture, recorded when the server still streamed from a
// record-at-a-time heap merge. The rows travel in the same bytes whatever
// merge produced them; a change here is a wire-format change.
const scanWireCRC = 640589748

// wireFixture is a small store exercising everything the scan stream
// encodes: two halls (wide rack codes), both tiers, several blocks.
func wireFixture(t *testing.T) *Store {
	t.Helper()
	fleet := topology.Fleet{Halls: 2, Racks: 3}
	s := NewStoreWith(Options{Partition: 6 * time.Hour, Retention: 12 * time.Hour, Fleet: fleet})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 400; i++ {
		ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
		for g := 0; g < fleet.NumRacks(); g++ {
			if err := s.Append(synthRecord(rng, fleet.RackAt(g), ts)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.Compact(""); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScanWireBytesPinned pins the time-ordered scan body byte for byte.
func TestScanWireBytesPinned(t *testing.T) {
	srv := httptest.NewServer(telemetrynet.NewServer(wireFixture(t), telemetrynet.ServerOptions{}).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/scan?order=time&tiers=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scan: status %d, %v", resp.StatusCode, err)
	}
	if got := crc32.ChecksumIEEE(body); got != scanWireCRC {
		t.Fatalf("scan body (%d bytes) CRC32 %d, want %d", len(body), got, scanWireCRC)
	}
}

// TestPointWireBytesPinned pins the /v1/query and /v1/series bodies served
// for wireFixture's first rack over its whole history, cold tier included,
// at CRCs recorded before point reads decoded into pooled arenas: how the
// store or the handler sizes its buffers must not move a byte.
func TestPointWireBytesPinned(t *testing.T) {
	srv := httptest.NewServer(telemetrynet.NewServer(wireFixture(t), telemetrynet.ServerOptions{}).Handler())
	defer srv.Close()
	for _, c := range []struct {
		path string
		crc  uint32
	}{
		{"/v1/query?rack=0&from=0&to=9000000000000000000", 1948424852},
		{"/v1/series?rack=0&metric=3&from=0&to=9000000000000000000", 558161692},
	} {
		resp, err := http.Get(srv.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", c.path, resp.StatusCode, err)
		}
		if got := crc32.ChecksumIEEE(body); got != c.crc {
			t.Errorf("%s: body (%d bytes) CRC32 %d, want %d", c.path, len(body), got, c.crc)
		}
	}
}
