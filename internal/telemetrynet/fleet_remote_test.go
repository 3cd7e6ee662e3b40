package telemetrynet

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mira/internal/analysis"
	"mira/internal/sensors"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/tsdb"
	"mira/internal/units"
)

// fleetAnalysisStore simulates half a day of telemetry for a 4-hall,
// 192-rack fleet, ingested frame-at-a-time through the batched path — the
// shape a fleet-sized miramon -serve store holds.
func fleetAnalysisStore(t *testing.T, fleet topology.Fleet) *tsdb.Store {
	t.Helper()
	db := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour, Fleet: fleet})
	rng := rand.New(rand.NewSource(31))
	start := time.Date(2015, 3, 10, 0, 0, 0, 0, timeutil.Chicago)
	for i := 0; i < 144; i++ {
		ts := start.Add(time.Duration(i) * timeutil.SampleInterval)
		frame := make([]sensors.Record, 0, fleet.NumRacks())
		for g := 0; g < fleet.NumRacks(); g++ {
			frame = append(frame, sensors.Record{
				Time:          ts,
				Rack:          fleet.RackAt(g),
				Flow:          units.GPM(26 + rng.Float64()),
				InletTemp:     units.Fahrenheit(64 + rng.Float64()),
				OutletTemp:    units.Fahrenheit(79 + rng.Float64()),
				DCTemperature: units.Fahrenheit(80 + 2*rng.Float64()),
				DCHumidity:    units.RelativeHumidity(30 + 4*rng.Float64()),
				Power:         units.Watts(55000 + 100*rng.Float64()),
			})
		}
		if err := db.AppendTick(frame); err != nil {
			t.Fatal(err)
		}
	}
	db.SealAll()
	return db
}

// TestRemoteFleetRoundTripBitIdentical is the fleet acceptance pin: a
// 4-hall, 192-rack store analyzed hall by hall through the wire — both the
// Fig. 7/9 aggregation pushdowns and the full streaming replay — produces
// figures bit-identical to the same analysis run in-process against the
// backing store.
func TestRemoteFleetRoundTripBitIdentical(t *testing.T) {
	fleet := topology.Fleet{Halls: 4, Racks: topology.NumRacks}
	store := fleetAnalysisStore(t, fleet)
	_, client := startServer(t, store)

	info, err := client.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Halls != fleet.Halls || info.RacksPerHall != fleet.Racks {
		t.Fatalf("server advertises %d halls × %d racks, want %d × %d",
			info.Halls, info.RacksPerHall, fleet.Halls, fleet.Racks)
	}

	ctx := context.Background()
	for hall := 0; hall < fleet.Halls; hall++ {
		localF7, err := analysis.Fig7CoolantPushdownHall(ctx, store, hall)
		if err != nil {
			t.Fatal(err)
		}
		remoteF7, err := analysis.Fig7CoolantPushdownHall(ctx, client, hall)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(localF7, remoteF7) {
			t.Errorf("hall %d: Fig7 pushdown differs over the wire", hall)
		}
		localF9, err := analysis.Fig9AmbientPushdownHall(ctx, store, hall)
		if err != nil {
			t.Fatal(err)
		}
		remoteF9, err := analysis.Fig9AmbientPushdownHall(ctx, client, hall)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(localF9, remoteF9) {
			t.Errorf("hall %d: Fig9 pushdown differs over the wire", hall)
		}

		opts := analysis.CollectOptions{Workers: 3, Hall: hall}
		local := analysis.CollectFromStoreCtx(ctx, store, opts)
		remote := analysis.CollectFromStoreCtx(ctx, client, opts)
		if got, want := remote.Fig7RackCoolant(), local.Fig7RackCoolant(); !reflect.DeepEqual(got, want) {
			t.Errorf("hall %d: Fig7 replay differs:\n local  %+v\n remote %+v", hall, want, got)
		}
		if got, want := fmt.Sprintf("%+v", remote.Fig3CoolantTimeline()), fmt.Sprintf("%+v", local.Fig3CoolantTimeline()); got != want {
			t.Errorf("hall %d: Fig3 replay differs:\n local  %s\n remote %s", hall, want, got)
		}
		if got, want := fmt.Sprintf("%+v", remote.Fig9RackAmbient()), fmt.Sprintf("%+v", local.Fig9RackAmbient()); got != want {
			t.Errorf("hall %d: Fig9 replay differs:\n local  %s\n remote %s", hall, want, got)
		}
	}
}
