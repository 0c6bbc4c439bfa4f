package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// BENCH_load.json schema (validated by bionav-benchcheck): JSON Lines,
// one object per line. The first line is a header carrying the schema
// marker and the run parameters; each sweep step is a "step" record; the
// final line is the "knee" record. All durations are milliseconds.
const SchemaLoadV1 = "bionav-load/v1"

type reportHeader struct {
	Schema         string  `json:"schema"`
	Seed           uint64  `json:"seed"`
	QueryPool      int     `json:"queryPool"`
	ZipfSkew       float64 `json:"zipfSkew"`
	Actions        int     `json:"actions"`
	ThinkMs        float64 `json:"thinkMs"`
	StepDurationMs float64 `json:"stepDurationMs"`
	Steps          int     `json:"steps"`
	SLOp99Ms       float64 `json:"sloP99Ms"`
	MaxShedRate    float64 `json:"maxShedRate"`
}

type reportClient struct {
	P50Ms       float64 `json:"p50Ms"`
	P95Ms       float64 `json:"p95Ms"`
	P99Ms       float64 `json:"p99Ms"`
	P999Ms      float64 `json:"p999Ms"`
	MaxMs       float64 `json:"maxMs"`
	MeanMs      float64 `json:"meanMs"`
	AchievedRps float64 `json:"achievedRps"`
}

type reportServer struct {
	APIRequests float64 `json:"apiRequests"`
	Shed        float64 `json:"shed"`
	Degraded    float64 `json:"degraded"`
	Timeouts    float64 `json:"timeouts"`
	P99Ms       float64 `json:"p99Ms"`
}

type reportStep struct {
	Record      string       `json:"record"` // "step"
	Step        int          `json:"step"`
	OfferedRate float64      `json:"offeredRate"`
	Sessions    int          `json:"sessions"`
	Aborted     int          `json:"aborted"`
	ElapsedMs   float64      `json:"elapsedMs"`
	Requests    Counts       `json:"requests"`
	Client      reportClient `json:"client"`
	Server      reportServer `json:"server"`
}

type reportKnee struct {
	Record   string  `json:"record"` // "knee"
	Found    bool    `json:"found"`
	Step     int     `json:"step"`
	Rate     float64 `json:"rate"`
	P99Ms    float64 `json:"p99Ms"`
	ShedRate float64 `json:"shedRate"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// WriteReport renders a sweep as BENCH_load.json lines.
func (r *Runner) WriteReport(w io.Writer, sc SweepConfig, rep *SweepReport) error {
	sc.fill()
	enc := json.NewEncoder(w)
	head := reportHeader{
		Schema:         SchemaLoadV1,
		Seed:           r.cfg.Seed,
		QueryPool:      len(r.cfg.Queries),
		ZipfSkew:       r.cfg.ZipfSkew,
		Actions:        r.cfg.Actions,
		ThinkMs:        ms(r.cfg.Think),
		StepDurationMs: ms(r.cfg.StepDuration),
		Steps:          len(rep.Steps),
		SLOp99Ms:       ms(sc.SLOp99),
		MaxShedRate:    sc.MaxShedRate,
	}
	if err := enc.Encode(head); err != nil {
		return fmt.Errorf("loadgen: write report header: %w", err)
	}
	for i := range rep.Steps {
		s := &rep.Steps[i]
		h := s.Result.Latency
		line := reportStep{
			Record:      "step",
			Step:        s.Step,
			OfferedRate: s.Result.OfferedRate,
			Sessions:    s.Result.Sessions,
			Aborted:     s.Result.Aborted,
			ElapsedMs:   ms(s.Result.Elapsed),
			Requests:    s.Result.Requests,
			Client: reportClient{
				P50Ms:       ms(s.Result.Quantile(0.50)),
				P95Ms:       ms(s.Result.Quantile(0.95)),
				P99Ms:       ms(s.Result.Quantile(0.99)),
				P999Ms:      ms(s.Result.Quantile(0.999)),
				MaxMs:       ms(duration(h.Max())),
				MeanMs:      ms(duration(h.Mean())),
				AchievedRps: s.Result.AchievedRPS(),
			},
			Server: reportServer{
				APIRequests: s.Server.APIRequests,
				Shed:        s.Server.Shed,
				Degraded:    s.Server.Degraded,
				Timeouts:    s.Server.Timeouts,
				P99Ms:       ms(s.Server.P99),
			},
		}
		if err := enc.Encode(line); err != nil {
			return fmt.Errorf("loadgen: write step %d: %w", s.Step, err)
		}
	}
	knee := reportKnee{
		Record:   "knee",
		Found:    rep.Knee.Found,
		Step:     rep.Knee.Step,
		Rate:     rep.Knee.Rate,
		P99Ms:    ms(rep.Knee.P99),
		ShedRate: rep.Knee.ShedRate,
	}
	if err := enc.Encode(knee); err != nil {
		return fmt.Errorf("loadgen: write knee: %w", err)
	}
	return nil
}
