package bench

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/telemetry"
)

// TelemetryOverheadConfig parameterizes the telemetry-overhead
// measurement: the same staged fan-out run twice per round — bare,
// then with a full telemetry plane (hot-path counters, trace stamps,
// a live HTTP exporter, and a concurrent scraper hammering /metrics).
type TelemetryOverheadConfig struct {
	Fanout FanoutConfig
	Rounds int           // interleaved off/on rounds, best wall kept (default 7)
	Scrape time.Duration // scraper period while the instrumented arm runs (default 10ms)
}

func (c *TelemetryOverheadConfig) withDefaults() TelemetryOverheadConfig {
	out := *c
	if out.Rounds == 0 {
		out.Rounds = 7
	}
	if out.Scrape == 0 {
		out.Scrape = 10 * time.Millisecond
	}
	return out
}

// TelemetryOverhead is the result of the measurement: producer wall
// time with telemetry off vs on (best of N interleaved rounds each),
// and their ratio — the number the <= 1.05 CI gate holds. The third,
// observatory arm runs the same instrumented producer while a mesh
// crawler scrapes /statusz + /eventz and assembles the merged
// timeline every period — what a live meshtop costs the producer.
type TelemetryOverhead struct {
	Config   TelemetryOverheadConfig
	OffWall  time.Duration // best bare producer wall
	OnWall   time.Duration // best instrumented producer wall
	ObsWall  time.Duration // best wall with an observatory crawler attached
	Scrapes  int           // /metrics responses served during the on arms
	Crawls   int           // statusz+eventz crawl cycles during the observatory arms
	Ratio    float64       // OnWall / OffWall
	ObsRatio float64       // ObsWall / OffWall
}

// RunTelemetryOverhead measures what the telemetry plane costs the
// producer in the staged fan-out shape. Rounds interleave the bare and
// instrumented runs (off, on, off, on, ...) so machine noise hits both
// arms alike, and the best wall per arm is compared — the standard
// best-of-N benchmark discipline.
func RunTelemetryOverhead(cfg TelemetryOverheadConfig) (TelemetryOverhead, error) {
	c := cfg.withDefaults()
	res := TelemetryOverhead{Config: c}
	for r := 0; r < c.Rounds; r++ {
		off, err := RunFanoutStaged(c.Fanout)
		if err != nil {
			return res, fmt.Errorf("bench: telemetry-off round %d: %w", r, err)
		}
		if res.OffWall == 0 || off.ProducerWall < res.OffWall {
			res.OffWall = off.ProducerWall
		}

		// Instrumented arm: a real plane with its exporter listening
		// and a scraper pulling /metrics for the whole run, so the
		// measurement includes sampler execution, not just counters.
		tel := telemetry.New("bench-fanout")
		exp, err := tel.Serve("127.0.0.1:0")
		if err != nil {
			return res, err
		}
		stop := make(chan struct{})
		scraped := make(chan int, 1)
		go func() {
			n := 0
			client := &http.Client{Timeout: 2 * time.Second}
			for {
				select {
				case <-stop:
					scraped <- n
					return
				case <-time.After(c.Scrape):
				}
				resp, err := client.Get(exp.URL() + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
					resp.Body.Close()
					n++
				}
			}
		}()
		on, err := runFanout(c.Fanout, tel, false)
		close(stop)
		res.Scrapes += <-scraped
		exp.Close()
		if err != nil {
			return res, fmt.Errorf("bench: telemetry-on round %d: %w", r, err)
		}
		if res.OnWall == 0 || on.ProducerWall < res.OnWall {
			res.OnWall = on.ProducerWall
		}

		// Observatory arm: same instrumented producer, but the scraper
		// is a mesh crawler — full /statusz + /eventz documents pulled
		// and the cross-tier timeline assembled every period, the load
		// a live meshtop puts on the plane.
		telObs := telemetry.New("bench-fanout")
		expObs, err := telObs.Serve("127.0.0.1:0")
		if err != nil {
			return res, err
		}
		stopObs := make(chan struct{})
		crawled := make(chan int, 1)
		go func() {
			n := 0
			for {
				select {
				case <-stopObs:
					crawled <- n
					return
				case <-time.After(c.Scrape):
				}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				doc, err := telemetry.FetchStatusz(ctx, expObs.Addr())
				if err == nil {
					telemetry.FetchEventz(ctx, expObs.Addr()) //nolint:errcheck // journal may be empty
					mesh := telemetry.MergeTraces(telemetry.ProcessRing{Process: doc.Process, Traces: doc.Traces})
					telemetry.FindBottleneck(mesh, 16)
					n++
				}
				cancel()
			}
		}()
		obs, err := runFanout(c.Fanout, telObs, false)
		close(stopObs)
		res.Crawls += <-crawled
		expObs.Close()
		if err != nil {
			return res, fmt.Errorf("bench: observatory round %d: %w", r, err)
		}
		if res.ObsWall == 0 || obs.ProducerWall < res.ObsWall {
			res.ObsWall = obs.ProducerWall
		}
	}
	if res.OffWall > 0 {
		res.Ratio = float64(res.OnWall) / float64(res.OffWall)
		res.ObsRatio = float64(res.ObsWall) / float64(res.OffWall)
	}
	return res, nil
}

// TelemetryOverheadTable renders the off/on comparison.
func TelemetryOverheadTable(r TelemetryOverhead) *metrics.Table {
	t := metrics.NewTable("Telemetry overhead: staged fan-out, exporter live + scraped",
		"arm", "producer wall [ms]", "ratio", "scrapes")
	t.AddRow("telemetry off", fmt.Sprintf("%.1f", float64(r.OffWall.Microseconds())/1000), "1.00x", "—")
	t.AddRow("telemetry on", fmt.Sprintf("%.1f", float64(r.OnWall.Microseconds())/1000),
		fmt.Sprintf("%.3fx", r.Ratio), r.Scrapes)
	t.AddRow("observatory crawled", fmt.Sprintf("%.1f", float64(r.ObsWall.Microseconds())/1000),
		fmt.Sprintf("%.3fx", r.ObsRatio), r.Crawls)
	return t
}
