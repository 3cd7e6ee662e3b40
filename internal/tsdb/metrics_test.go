package tsdb

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mira/internal/obs"
	"mira/internal/sensors"
	"mira/internal/timeutil"
	"mira/internal/topology"
)

// TestStatsDoesNotDecode pins the lock-discipline fix: Stats accounts for
// sealed blocks from snapshot metadata (compressed payload lengths) and
// must never decompress anything or hold a shard lock while summing.
// mira_tsdb_block_decode_total counts every payload decode, so it must not
// move across a Stats call. (No t.Parallel: the counter is process-global.)
func TestStatsDoesNotDecode(t *testing.T) {
	db := NewStoreWith(Options{Partition: time.Hour})
	racks := []topology.RackID{{Row: 0, Col: 0}, {Row: 1, Col: 8}}
	fill(t, 100, racks, db) // 100 samples at 300 s spans several 1 h partitions
	db.SealAll()

	before := metDecode.Value()
	st := db.Stats()
	if got := metDecode.Value(); got != before {
		t.Errorf("Stats decoded %d payloads; accounting must be metadata-only", got-before)
	}
	if st.Records != db.Len() || st.SealedBytes == 0 {
		t.Errorf("stats = %+v, want %d records and nonzero sealed bytes", st, db.Len())
	}

	// A frozen block is accounted from its length alone: with its
	// compression parked, Stats returns (it neither starts nor awaits the
	// seal), decodes nothing, and books the block as head memory.
	if err := db.AppendTick(hourTicks(racks, 100, 104)); err != nil {
		t.Fatal(err)
	}
	gate := parkSeals(t)
	rolled := make(chan error, 1)
	go func() { rolled <- db.AppendTick(hourTicks(racks, 108, 109)) }() // closes the 4-sample heads
	gate.waitParked(t)
	before = metDecode.Value()
	parked, frozen := db.stats()
	if got := metDecode.Value(); got != before {
		t.Errorf("Stats decoded %d payloads beside a frozen block", got-before)
	}
	const rawRecordBytes = 8 * (1 + int64(sensors.NumMetrics))
	if frozen != len(racks) || parked.SealedBlocks != st.SealedBlocks || parked.SealedBytes != st.SealedBytes ||
		parked.HeadBytes != int64(len(racks))*(4+1)*rawRecordBytes {
		t.Errorf("parked stats = %+v with %d frozen, want %d frozen, the sealed tier unchanged from %+v, and 4+1 samples per rack in HeadBytes",
			parked, frozen, len(racks), st)
	}
	gate.open()
	if err := <-rolled; err != nil {
		t.Fatal(err)
	}
	if st, frozen := db.stats(); frozen != 0 || st.HeadBytes != int64(len(racks))*rawRecordBytes {
		t.Errorf("at rest: %d frozen, HeadBytes %d; want 0 and the new heads only", frozen, st.HeadBytes)
	}
}

// TestStatsConcurrentWithIngest hammers Stats and the scrape-time gauge
// refresh while appends, seals, and queries run — the deadlock regression
// test for holding shard locks during byte accounting (meaningful under
// -race, which tier-1 runs).
func TestStatsConcurrentWithIngest(t *testing.T) {
	db := NewStore()
	reg := obs.NewRegistry()
	db.ExposeGauges(reg)

	rack := topology.RackID{Row: 2, Col: 3}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
			rec := sensors.Record{Time: ts, Rack: rack, Power: 57000}
			if err := db.Append(rec); err != nil {
				t.Errorf("append: %v", err)
				return
			}
			if i%500 == 499 {
				db.SealAll()
			}
			i++
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				st := db.Stats()
				if st.Records < 0 {
					t.Error("negative record count")
				}
				reg.WritePrometheus(io.Discard)
				db.Query(rack, base, base.Add(24*time.Hour))
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestCorruptStoreFlipsHealthz is the end of the satellite chain: a
// truncated segment makes Open fail with ErrCorrupt, the error goes to
// SetHealth, and /healthz answers 503 with the corruption text — what a
// long-running miramon -listen does instead of exiting.
func TestCorruptStoreFlipsHealthz(t *testing.T) {
	dir := t.TempDir()
	db := NewStore()
	fill(t, 300, []topology.RackID{{Row: 0, Col: 1}}, db)
	if err := db.Flush(dir); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments flushed: %v", err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open(corrupt) = %v, want ErrCorrupt", err)
	}

	reg := obs.NewRegistry()
	reg.SetHealth(err)
	srv := httptest.NewServer(reg.HTTPHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz status = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "corrupt segment") {
		t.Errorf("healthz body %q should name the corruption", body)
	}
}
