package telemetrynet

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mira/internal/analysis"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/tsdb"
	"mira/internal/units"
)

// analysisStore simulates a two-day full-machine trace with per-channel
// variation, compressed into a sharded store — the shape the paper's
// figures aggregate over.
func analysisStore(t *testing.T) *tsdb.Store {
	t.Helper()
	db := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	rng := rand.New(rand.NewSource(23))
	start := time.Date(2015, 3, 10, 0, 0, 0, 0, timeutil.Chicago)
	for i := 0; i < 2*288; i++ {
		ts := start.Add(time.Duration(i) * timeutil.SampleInterval)
		for _, rack := range topology.AllRacks() {
			r := wireTrace(1)[0]
			r.Time = ts
			r.Rack = rack
			r.Flow = units.GPM(26 + rng.Float64())
			r.InletTemp = units.Fahrenheit(64 + rng.Float64())
			r.OutletTemp = units.Fahrenheit(79 + rng.Float64())
			r.DCTemperature = units.Fahrenheit(80 + 2*rng.Float64())
			r.DCHumidity = units.RelativeHumidity(30 + 4*rng.Float64())
			r.Power = units.Watts(55000 + 100*rng.Float64())
			if err := db.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestRemotePushdownBitIdentical is the acceptance pin for the tentpole:
// the Fig. 7 and Fig. 9 aggregation pushdowns through a telemetrynet
// client are bit-identical to running them in-process against the same
// store — the wire carries raw float64 bit patterns and the windows are
// computed server-side.
func TestRemotePushdownBitIdentical(t *testing.T) {
	store := analysisStore(t)
	_, client := startServer(t, store)

	localF7, err := analysis.Fig7CoolantPushdownHall(context.Background(), store, 0)
	if err != nil {
		t.Fatal(err)
	}
	remoteF7, err := analysis.Fig7CoolantPushdownHall(context.Background(), client, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(localF7, remoteF7) {
		t.Errorf("Fig7 pushdown differs over the wire:\n local  %+v\n remote %+v", localF7, remoteF7)
	}

	localF9, err := analysis.Fig9AmbientPushdownHall(context.Background(), store, 0)
	if err != nil {
		t.Fatal(err)
	}
	remoteF9, err := analysis.Fig9AmbientPushdownHall(context.Background(), client, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(localF9, remoteF9) {
		t.Errorf("Fig9 pushdown differs over the wire:\n local  %+v\n remote %+v", localF9, remoteF9)
	}
}

// TestRemoteReplayEquivalence: the full streaming replay (every figure's
// collector) through the remote scan endpoint matches the in-process
// parallel merged replay. NaN-carrying figures compare via their %+v
// rendering, which treats NaN as equal to itself.
func TestRemoteReplayEquivalence(t *testing.T) {
	store := analysisStore(t)
	_, client := startServer(t, store)

	local := analysis.CollectFromStoreCtx(context.Background(), store, analysis.CollectOptions{Workers: 3})
	remote := analysis.CollectFromStoreCtx(context.Background(), client, analysis.CollectOptions{Workers: 3})

	if got, want := remote.Fig7RackCoolant(), local.Fig7RackCoolant(); !reflect.DeepEqual(got, want) {
		t.Errorf("Fig7 replay differs:\n local  %+v\n remote %+v", want, got)
	}
	if got, want := fmt.Sprintf("%+v", remote.Fig3CoolantTimeline()), fmt.Sprintf("%+v", local.Fig3CoolantTimeline()); got != want {
		t.Errorf("Fig3 replay differs:\n local  %s\n remote %s", want, got)
	}
	if got, want := fmt.Sprintf("%+v", remote.Fig9RackAmbient()), fmt.Sprintf("%+v", local.Fig9RackAmbient()); got != want {
		t.Errorf("Fig9 replay differs:\n local  %s\n remote %s", want, got)
	}
}
