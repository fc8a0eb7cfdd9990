package policy_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"split/internal/core"
	"split/internal/fleet"
	"split/internal/gpusim"
	"split/internal/model"
	"split/internal/place"
	"split/internal/policy"
	"split/internal/trace"
	"split/internal/workload"
	"split/internal/zoo"
)

// The simulator golden test pins policy.Split's observable output — the
// sorted records, the run's FleetStats and the full trace event stream —
// across a matrix covering every scheduling knob, as SHA-256 digests. Any
// refactor of the grant/settle/placement/admission/autoscale path must
// keep every digest; a deliberate behaviour change must update them and
// say why.
//
// Configurations are built with NewSplit plus field assignments only, so
// the test is independent of how the knob structs are laid out.

var (
	goldenOnce    sync.Once
	goldenCatalog policy.Catalog
	goldenErr     error
)

func goldenDeploy(t *testing.T) policy.Catalog {
	t.Helper()
	goldenOnce.Do(func() {
		dep, err := core.DefaultPipeline().Deploy()
		if err != nil {
			goldenErr = err
			return
		}
		goldenCatalog = dep.Catalog
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenCatalog
}

// goldenArrivals is a ~2k-arrival cohort trace over the benchmark zoo:
// Poisson interactive traffic, an MMPP burst cohort and a heavy-tailed
// batch cohort. lifecycle adds client deadlines and cancellations.
func goldenArrivals(t *testing.T, intervalMs float64, lifecycle bool) []workload.Arrival {
	t.Helper()
	interactive := workload.Cohort{
		Name:    "interactive",
		Models:  zoo.BenchmarkModels,
		Process: workload.Process{Kind: workload.ProcPoisson, MeanIntervalMs: intervalMs},
	}
	burst := workload.Cohort{
		Name:   "edge-burst",
		Models: []string{"yolov2", "googlenet"},
		Process: workload.Process{
			Kind: workload.ProcMMPP, MeanIntervalMs: 5 * intervalMs,
			BurstIntervalMs: intervalMs, CalmDwellMs: 2000, BurstDwellMs: 500,
		},
	}
	batch := workload.Cohort{
		Name:    "batch",
		Models:  []string{"vgg19", "gpt2"},
		Process: workload.Process{Kind: workload.ProcLogNormal, MeanIntervalMs: 4 * intervalMs, Sigma: 1.2},
	}
	if lifecycle {
		interactive.DeadlineMs, interactive.DeadlineJitterFrac = 400, 0.5
		interactive.CancelFrac, interactive.CancelAfterMs = 0.15, 60
		batch.CancelFrac, batch.CancelAfterMs = 0.1, 150
	}
	arrivals, err := workload.GenerateCohorts(workload.CohortSetConfig{
		Cohorts: []workload.Cohort{interactive, burst, batch},
		Count:   2000,
		Seed:    11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return arrivals
}

type goldenCase struct {
	name      string
	interval  float64 // interactive mean inter-arrival, ms
	lifecycle bool
	configure func(s *policy.Split)
	records   string
	events    string
}

func goldenFaults() *gpusim.FaultInjector {
	return &gpusim.FaultInjector{Seed: 7, SpikeProb: 0.1, SpikeFactor: 2.5, FailProb: 0.15, MaxRetries: 1}
}

var goldenCases = []goldenCase{
	{name: "scalar", interval: 60,
		records:   "88d45833e995256ea11ddd467c4164cc40ffd8eaa5fd84b2faf6ada41e8e5bac",
		events:    "ce72facb4e9cf9ab68bd07f0bec12b9ffa108ababaf44723377eeebd91b85f3c",
		configure: func(s *policy.Split) {}},
	{name: "no-elastic", interval: 60,
		records:   "cc415c93f2c0da7d290ca63c7b5db3377cb54f6f49fc1ce8805a29a6fa66d3fe",
		events:    "c93ab2c958c1891b32e5e2e34f3773bbec87cd6950ea5ee361224a731044fcfd",
		configure: func(s *policy.Split) { s.Elastic.Enabled = false }},
	{name: "batch4", interval: 60,
		records:   "bb73a223849aef61adc86c98ccd39b306498e05de6d2f355d7df5137e25604cc",
		events:    "dffb4a11f43dd592079bfaff31dbea9553a1a4c8a33bd886e0f0201c3c93375b",
		configure: func(s *policy.Split) { s.BatchMax = 4 }},
	{name: "partitions2-fixed", interval: 40,
		records: "376ac63640799ba0807ff7b789737c31931e7a2bf05f149847f2f753eaf176f9",
		events:  "c1176d36c58bf4eefb21f07f3d3c8c8aeb33a955ef8c85e99e0414c956572d94",
		configure: func(s *policy.Split) {
			s.Partitions, s.PartitionWidth = 2, place.WidthFixed
		}},
	{name: "partitions2-adaptive", interval: 40,
		records: "82edd99244ac97b85ba54ff7366f62117d084edb298540d73fa09fa24c283693",
		events:  "6ab7945c5bd16978c6aa6adf8843ba6d4b11872faf4ab9b9b627ed5e926905bc",
		configure: func(s *policy.Split) {
			s.Partitions, s.PartitionWidth = 2, place.WidthAdaptive
		}},
	{name: "devices4-round-robin", interval: 15,
		records: "f607253a615d178d771c28b9b082f6df9566860106205ad919b65655168fa81a",
		events:  "c7c881ed56278c4066f6054ccd9dfa3887a6fe74098da8b3f88a081208a5b0de",
		configure: func(s *policy.Split) {
			s.Devices, s.Placement = 4, place.RoundRobin
		}},
	{name: "devices4-least-loaded", interval: 15,
		records: "c53fb969ccaf524e4736263823b0917840f6bc43c543d6e0052583895f44b426",
		events:  "9a743f59e0535df55d5220b6ea2e2207d11990814ed21f5dd0b6fc42ee43ba51",
		configure: func(s *policy.Split) {
			s.Devices, s.Placement = 4, place.LeastLoaded
		}},
	{name: "devices4-affinity", interval: 15,
		records: "d9f9fabe3f30d178d31d730fbc4b736d8dec7f2d00d15675d4a60893e0d496b1",
		events:  "0319b0c04e33a9dde5e134d85fb4b4e1d90fcdf28b0bbdf1f7c6571517343500",
		configure: func(s *policy.Split) {
			s.Devices, s.Placement = 4, place.Affinity
		}},
	{name: "fleet-autoscale", interval: 15,
		records: "de555af1c924a1be93343ca1ea069b681b48d8678da1828ee793697510af9061",
		events:  "337ac924952c284600bebaf6038a73fd4079bf98837a1b1be1a325f365b21645",
		configure: func(s *policy.Split) {
			s.Placement = place.LeastLoaded
			s.Fleet = fleet.AutoscaleConfig{Min: 1, Max: 4, EvalEveryMs: 50, ScaleOutCooldownMs: 200, IdleReleaseMs: 400}
		}},
	{name: "admission-token-bucket", interval: 40,
		records: "398a1c1eb39304d06001c73854433ed317817b01dd9ae89b309d21b263a43308",
		events:  "d34a3b78c8cd2817359c21fccfceef995306a7f61f40028f8865a450d33f293c",
		configure: func(s *policy.Split) {
			s.Admission = fleet.AdmissionConfig{Mode: fleet.AdmitTokenBucket, RatePerSec: 12, Burst: 4}
		}},
	{name: "admission-queue-length", interval: 40,
		records: "ed992feef41ef6e26055b6e858026cd41490ad713f4299f3501f73c1c61bc729",
		events:  "8b9853b8ee23a27d7df615024f03f03239a0a3983afa6a9e335e978bbdc9d9cd",
		configure: func(s *policy.Split) {
			s.Admission = fleet.AdmissionConfig{Mode: fleet.AdmitQueueLength, MaxQueue: 6}
		}},
	{name: "admission-predicted-rr", interval: 40,
		records: "ca3792dc1fd2d396bd016f063f3108b5cfc5e41a108ad9c9dbb521495076405a",
		events:  "4ef0e845cddc9ac84c8556b3e42d9dca17fefdc5334747abfc502d592526f49e",
		configure: func(s *policy.Split) {
			s.Admission = fleet.AdmissionConfig{Mode: fleet.AdmitPredictedRR, MaxPredictedRR: 6}
		}},
	{name: "fleet-admission-partitions", interval: 10, lifecycle: true,
		records: "3c4547ace5ffb98c110c5cc117faf49ff0c910f4e574fdd07d46841a160e33ee",
		events:  "847929a2c0b5aa8f0e543be3b09925ec079fd34ac686a860cb8dce671e81471e",
		configure: func(s *policy.Split) {
			s.Partitions = 2
			s.Fleet = fleet.AutoscaleConfig{Min: 1, Max: 3, EvalEveryMs: 50, ScaleOutCooldownMs: 200, IdleReleaseMs: 400}
			s.Admission = fleet.AdmissionConfig{Mode: fleet.AdmitQueueLength, MaxQueue: 24}
		}},
	{name: "faults", interval: 60,
		records:   "148bb83a40ab98f287b1dc32c507814d6efb559693f32f9d3f7a577f63035093",
		events:    "3d5d44a860154c3f0c6d7f27f627fcdb4bb6f85f00bdbf5576657cd94dae5a52",
		configure: func(s *policy.Split) { s.Faults = goldenFaults() }},
	{name: "faults-lifecycle", interval: 60, lifecycle: true,
		records: "38f30af9fa419d58cf34900b52eb4b2d2c24fc4a954f7317ababced89c440ce6",
		events:  "0b90ef5d081d7f5425daeacafa4b0484b4119529719ac5e92336438cc23a813e",
		configure: func(s *policy.Split) {
			s.Faults = goldenFaults()
			s.EnforceDeadlines = true
		}},
	{name: "faults-batch-devices2", interval: 30, lifecycle: true,
		records: "f61ea679c402179c805b8615610210a93a8e6cfa4e4db416b11dc52672b8e24d",
		events:  "4910f688d7a1acd566094256688b9c66a7755f0a9564fe21ef4bfb1311acf518",
		configure: func(s *policy.Split) {
			s.Faults, s.BatchMax, s.Devices = goldenFaults(), 4, 2
		}},
	{name: "faults-partitions2", interval: 40, lifecycle: true,
		records: "de8f85f974ee023e5a7bf5de9ea6a6b25507b493ebcf46c85e2c8cf06510b767",
		events:  "5142733e6613839d77a7475a30bf863b43f3297d37144496998776ae5f47ee89",
		configure: func(s *policy.Split) {
			s.Faults, s.Partitions = goldenFaults(), 2
		}},
	{name: "cancels", interval: 60, lifecycle: true,
		records:   "79ab5a3adb22c89e7f4268c449bf5caabdec7c7245996daf0187edd0494333fc",
		events:    "45891aee640659da23079c2581f46c05c469be7ca489b14eff5bcc09d4d35351",
		configure: func(s *policy.Split) {}},
	{name: "deadlines", interval: 60, lifecycle: true,
		records:   "eec9d8e5916c8a98345ff62aa9a91c4b82820723f5d9dd88de0a8ada8f6514c3",
		events:    "44582121184b7b8ce465314801a52dc91a369a71e331e3771a9ae3354efc2bb4",
		configure: func(s *policy.Split) { s.EnforceDeadlines = true }},
	{name: "predictive-shed", interval: 60, lifecycle: true,
		records: "3d857e888e18588e2e956064a4b39bb613351f1f22752e74126ba9bbcd5c8fc0",
		events:  "7ce21a30ef429aa23944c1a70acf054b04aa129b7c4e3ef4574cd650dcd44bfc",
		configure: func(s *policy.Split) {
			s.EnforceDeadlines, s.PredictiveShed = true, true
		}},
	{name: "partial-preemption", interval: 60,
		records:   "9da70be3afef429c7f7e695de9da140ea025caae7c0c0c4237274df9da3d6ab1",
		events:    "40d1cd8efce5124f9e7c2a495ca9199e2fa06d0bcfe33eea079dc90b98b3b625",
		configure: func(s *policy.Split) { s.PartialPreemption = true }},
	{name: "starve-guard", interval: 60,
		records:   "a9a5dbf4f2a09d3afedb2329a4e0315a6bf41ab37c5e55b3c9f8f4d1d95a2766",
		events:    "d955d788f52984582c4c694d0b5c093ba91f8a0dcf743db9fcea6fda1d339a93",
		configure: func(s *policy.Split) { s.StarveGuardRR = 6 }},
	{name: "alpha-by-class", interval: 60, lifecycle: true,
		records: "bf347c390e0a37e3d440e7819ccf6780c513026b61b5d99b505023458268cd47",
		events:  "9d87842a891ddd52257bcdd634d80fca39787484a8dca433d58dff44e883282c",
		configure: func(s *policy.Split) {
			s.EnforceDeadlines = true
			s.AlphaByClass = map[model.RequestClass]float64{model.Short: 2, model.Long: 6}
		}},
}

// digest hashes the %+v rendering of every value, one per line.
func digest[T any](vals []T) string {
	h := sha256.New()
	for _, v := range vals {
		fmt.Fprintf(h, "%+v\n", v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSimGoldenDigests(t *testing.T) {
	catalog := goldenDeploy(t)
	traces := map[[2]any][]workload.Arrival{}
	for _, tc := range goldenCases {
		tc := tc
		key := [2]any{tc.interval, tc.lifecycle}
		if traces[key] == nil {
			traces[key] = goldenArrivals(t, tc.interval, tc.lifecycle)
		}
		arrivals := traces[key]
		t.Run(tc.name, func(t *testing.T) {
			s := policy.NewSplit()
			tc.configure(s)
			tr := trace.New()
			recs, stats := s.RunWithStats(arrivals, catalog, tr)
			if len(recs) != len(arrivals) {
				t.Fatalf("%d records for %d arrivals", len(recs), len(arrivals))
			}
			gotRecs := digest(append([]any{stats}, anySlice(recs)...))
			gotEvents := digest(tr.Events())
			if gotRecs != tc.records || gotEvents != tc.events {
				t.Errorf("digests changed:\n\trecords: %q,\n\tevents:  %q,", gotRecs, gotEvents)
			}
		})
	}
}

func anySlice[T any](vals []T) []any {
	out := make([]any, len(vals))
	for i, v := range vals {
		out[i] = v
	}
	return out
}
