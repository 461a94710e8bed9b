package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestSampleCadenceDigestsPinned pins a short streamed Azure run at two
// gauge cadences: 10 ms, below the 25 ms DispatchWindow, where a sample
// lands between dispatch ticks and on their boundaries, and 25 ms, where
// every sample shares its instant with a dispatch tick. At a shared instant
// the engine's (at, seq) order decides whether a sample reads the batcher
// before or after the tick drains it, so a change to how periodic ticks
// take their seq — re-arming the dispatch tick from arrivals, say — moves
// these digests even when every request's outcome is unchanged. The rows
// were recorded before the periodic ticks moved out of the event heap.
func TestSampleCadenceDigestsPinned(t *testing.T) {
	want := map[time.Duration]string{
		10 * time.Millisecond: "result=5e207550ed19a7d2 spans=da9607098b22e44b events=e365886a85544480 series=ef3f9c8683eccfa0",
		25 * time.Millisecond: "result=5e207550ed19a7d2 spans=da9607098b22e44b events=c0974b0436aa1780 series=ae9bc3a24b5f0425",
	}
	for _, every := range []time.Duration{10 * time.Millisecond, 25 * time.Millisecond} {
		t.Run(every.String(), func(t *testing.T) {
			rng := sim.NewRNG(17)
			rec, ss := telemetry.NewRecorder(), telemetry.NewSeriesSet()
			res := Run(Config{
				Model:       model.MustByName("ResNet 50"),
				Scheme:      NewPaldia(),
				Stream:      trace.AzureCurve(rng, 250, time.Minute).Stream(rng),
				Telemetry:   telemetry.Combine(rec, ss),
				SampleEvery: every,
			})
			var spans, events, series bytes.Buffer
			if err := rec.WriteSpansJSONL(&spans); err != nil {
				t.Fatal(err)
			}
			if err := rec.WriteEventsJSONL(&events); err != nil {
				t.Fatal(err)
			}
			if err := ss.WriteCSV(&series); err != nil {
				t.Fatal(err)
			}
			res.Collector = nil
			got := fmt.Sprintf("result=%s spans=%s events=%s series=%s",
				shortHash([]byte(fmt.Sprintf("%+v", res))), shortHash(spans.Bytes()),
				shortHash(events.Bytes()), shortHash(series.Bytes()))
			if got != want[every] {
				t.Errorf("SampleEvery=%v digest changed:\n got %s\nwant %s", every, got, want[every])
			}
		})
	}
}
