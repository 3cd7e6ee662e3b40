package sensors

import (
	"math"
	"strings"
	"testing"
	"time"

	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/units"
)

func healthyRecord(ts time.Time) Record {
	return Record{
		Time:          ts,
		Rack:          topology.RackID{Row: 1, Col: 2},
		DCTemperature: 80,
		DCHumidity:    32,
		Flow:          26.5,
		InletTemp:     64,
		OutletTemp:    79,
		Power:         units.Watts(57e3),
	}
}

var ts0 = time.Date(2015, 6, 1, 12, 0, 0, 0, timeutil.Chicago)

func TestMetricValueRoundTrip(t *testing.T) {
	r := healthyRecord(ts0)
	cases := map[Metric]float64{
		MetricDCTemperature: 80,
		MetricDCHumidity:    32,
		MetricFlow:          26.5,
		MetricInletTemp:     64,
		MetricOutletTemp:    79,
		MetricPower:         57000,
	}
	all := r.Values()
	for m, want := range cases {
		if got := r.Value(m); got != want {
			t.Errorf("Value(%v) = %v, want %v", m, got, want)
		}
		if all[m] != want {
			t.Errorf("Values()[%v] = %v, want %v", m, all[m], want)
		}
	}
	if len(AllMetrics()) != int(NumMetrics) {
		t.Errorf("AllMetrics count = %d", len(AllMetrics()))
	}
}

func TestMetricStrings(t *testing.T) {
	want := map[Metric]string{
		MetricDCTemperature: "dc_temperature",
		MetricDCHumidity:    "dc_humidity",
		MetricFlow:          "coolant_flow",
		MetricInletTemp:     "inlet_temp",
		MetricOutletTemp:    "outlet_temp",
		MetricPower:         "power",
	}
	for m, w := range want {
		if m.String() != w {
			t.Errorf("Metric(%d).String() = %q, want %q", int(m), m.String(), w)
		}
	}
}

func TestRecordDewpoint(t *testing.T) {
	r := healthyRecord(ts0)
	dp := r.dewpoint()
	if float64(dp) < 44 || float64(dp) > 52 {
		t.Errorf("Dewpoint = %v, want ≈48°F for 80°F/32RH", dp)
	}
}

func TestMonitorSampleNoise(t *testing.T) {
	m := NewMonitor(topology.RackID{Row: 1, Col: 2}, 1)
	truth := healthyRecord(ts0)
	// Over many samples, the measured mean should match truth closely and
	// noise should be visible but small.
	var sumIn, sumSq float64
	n := 2000
	for i := 0; i < n; i++ {
		s := m.Sample(truth)
		sumIn += float64(s.InletTemp)
		d := float64(s.InletTemp) - 64
		sumSq += d * d
	}
	mean := sumIn / float64(n)
	if math.Abs(mean-64) > 0.05 {
		t.Errorf("measured inlet mean = %v, want ≈64", mean)
	}
	std := math.Sqrt(sumSq / float64(n))
	if std < 0.02 || std > 0.2 {
		t.Errorf("measured inlet noise = %v, want ≈0.08", std)
	}
}

func TestMonitorDriftAndReplacement(t *testing.T) {
	m := NewMonitor(topology.RackID{Row: 2, Col: 5}, 2)
	start := time.Date(2016, 1, 1, 0, 0, 0, 0, timeutil.Chicago)
	replaced := time.Date(2017, 6, 1, 0, 0, 0, 0, timeutil.Chicago)
	m.InjectDrift(MetricOutletTemp, 0.01, start, replaced)

	sample := func(ts time.Time) float64 {
		truth := healthyRecord(ts)
		var sum float64
		for i := 0; i < 200; i++ {
			sum += float64(m.Sample(truth).OutletTemp)
		}
		return sum / 200
	}
	before := sample(time.Date(2015, 6, 1, 0, 0, 0, 0, timeutil.Chicago))
	during := sample(time.Date(2017, 1, 1, 0, 0, 0, 0, timeutil.Chicago)) // 366 days in
	after := sample(time.Date(2018, 1, 1, 0, 0, 0, 0, timeutil.Chicago))
	if during-before < 2.5 {
		t.Errorf("drift should accumulate: before=%v during=%v", before, during)
	}
	if math.Abs(after-before) > 0.3 {
		t.Errorf("replacement should reset readings: before=%v after=%v", before, after)
	}
}

func TestThresholdsHealthy(t *testing.T) {
	th := DefaultThresholds()
	if alarms := th.Check(healthyRecord(ts0)); len(alarms) != 0 {
		t.Errorf("healthy record should not alarm, got %v", alarms)
	}
}

func TestThresholdsFlowAlarms(t *testing.T) {
	th := DefaultThresholds()
	r := healthyRecord(ts0)
	r.Flow = 20 // below 80% of 26.5 (=21.2), above 62% (=16.4)
	alarms := th.Check(r)
	if len(alarms) != 1 || alarms[0].Severity != Warn {
		t.Fatalf("want one warn, got %v", alarms)
	}
	r.Flow = 15
	alarms = th.Check(r)
	if !HasFatal(alarms) {
		t.Fatalf("want fatal flow alarm, got %v", alarms)
	}
	if !strings.Contains(alarms[0].Reason, "flow") {
		t.Errorf("reason = %q", alarms[0].Reason)
	}
}

func TestThresholdsInletAlarms(t *testing.T) {
	th := DefaultThresholds()
	r := healthyRecord(ts0)
	r.InletTemp = 59 // warn zone
	if alarms := th.Check(r); len(alarms) != 1 || alarms[0].Severity != Warn {
		t.Fatalf("want warn, got %v", alarms)
	}
	r.InletTemp = 55 // fatal low
	if alarms := th.Check(r); !HasFatal(alarms) {
		t.Fatalf("want fatal, got %v", alarms)
	}
	r.InletTemp = 72.5 // fatal high
	if alarms := th.Check(r); !HasFatal(alarms) {
		t.Fatalf("want fatal, got %v", alarms)
	}
}

func TestThresholdsCondensation(t *testing.T) {
	th := DefaultThresholds()
	r := healthyRecord(ts0)
	r.DCHumidity = 97 // dewpoint ≈ DC temperature
	alarms := th.Check(r)
	if !HasFatal(alarms) {
		t.Fatalf("condensation should be fatal, got %v", alarms)
	}
	if !strings.Contains(alarms[0].Reason, "condensation") {
		t.Errorf("reason = %q", alarms[0].Reason)
	}
	// Moderate humidity: warning first.
	r.DCHumidity = 86
	alarms = th.Check(r)
	if len(alarms) == 0 || HasFatal(alarms) {
		t.Fatalf("want warn-only for shrinking margin, got %v", alarms)
	}
}

func TestFatalSortsFirst(t *testing.T) {
	th := DefaultThresholds()
	r := healthyRecord(ts0)
	r.Flow = 20      // warn
	r.InletTemp = 55 // fatal
	alarms := th.Check(r)
	if len(alarms) < 2 {
		t.Fatalf("want two alarms, got %v", alarms)
	}
	if alarms[0].Severity != Fatal {
		t.Errorf("fatal should sort first: %v", alarms)
	}
}

func TestAlarmString(t *testing.T) {
	a := Alarm{Time: ts0, Rack: topology.RackID{Row: 0, Col: 13}, Severity: Fatal, Reason: "test"}
	s := a.String()
	if !strings.Contains(s, "FATAL") || !strings.Contains(s, "(0,D)") {
		t.Errorf("Alarm.String = %q", s)
	}
	if Warn.String() != "WARN" {
		t.Error("Warn.String")
	}
}

func TestHasFatalEmpty(t *testing.T) {
	if HasFatal(nil) {
		t.Error("empty alarm list should not be fatal")
	}
}

func TestSampleClampHumidity(t *testing.T) {
	m := NewMonitor(topology.RackID{Row: 0, Col: 0}, 3)
	truth := healthyRecord(ts0)
	truth.DCHumidity = 100
	for i := 0; i < 100; i++ {
		if s := m.Sample(truth); s.DCHumidity > 100 {
			t.Fatalf("sampled humidity %v exceeds 100", s.DCHumidity)
		}
	}
}
