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
	return cohortArrivals(t, intervalMs, lifecycle, 2000)
}

// cohortArrivals is goldenArrivals' cohort mix at any length.
func cohortArrivals(t *testing.T, intervalMs float64, lifecycle bool, count int) []workload.Arrival {
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
		Count:   count,
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
		key := [2]any{tc.interval, tc.lifecycle}
		if traces[key] == nil {
			traces[key] = goldenArrivals(t, tc.interval, tc.lifecycle)
		}
		checkSplitDigests(t, tc, traces[key], catalog)
	}
	ties, tieTrace := tieCatalog(), tieArrivals()
	for _, tc := range tieCases {
		checkSplitDigests(t, tc, tieTrace, ties)
	}
	heavy := goldenArrivals(t, 15, false)
	for _, bc := range baselineCases {
		checkBaselineDigests(t, bc, bc.name, heavy, catalog, bc.records, bc.events)
		checkBaselineDigests(t, bc, bc.name+"-ties", tieTrace, ties, bc.tieRecords, bc.tieEvents)
	}
}

// checkSplitDigests runs tc's SPLIT configuration over arrivals as a
// subtest and compares its record and event digests.
func checkSplitDigests(t *testing.T, tc goldenCase, arrivals []workload.Arrival, catalog policy.Catalog) {
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

// tieCatalog has binary-exact block times, so block boundaries land
// exactly on the hand-picked instants of tieArrivals.
func tieCatalog() policy.Catalog {
	graphs := map[string]*model.Graph{
		"long": {Name: "long", Domain: "t", Class: model.Long,
			Ops: []model.Op{{Name: "a", TimeMs: 10}, {Name: "b", TimeMs: 10}, {Name: "c", TimeMs: 10}}},
		"mid": {Name: "mid", Domain: "t", Class: model.Long,
			Ops: []model.Op{{Name: "d", TimeMs: 4}, {Name: "e", TimeMs: 4}}},
		"short": {Name: "short", Domain: "t", Class: model.Short,
			Ops: []model.Op{{Name: "x", TimeMs: 5}}},
	}
	plans := map[string]*model.SplitPlan{
		"long": {Model: "long", Cuts: []int{1, 2}, BlockTimesMs: []float64{10, 10, 10}},
		"mid":  {Model: "mid", Cuts: []int{1}, BlockTimesMs: []float64{4, 4}},
	}
	return policy.NewCatalog(graphs, plans)
}

// tieArrivals is a hand-built trace whose instants collide on purpose, so
// its digests pin the simulator's tie order between arrivals, cancels and
// block boundaries:
//   - id 1 arrives at 10, the instant id 0's first block ends;
//   - id 2's cancel at 20 coincides with its own block boundary and with
//     the arrivals of ids 3 and 4;
//   - id 5 is canceled at exactly its arrival instant;
//   - id 6's cancel at 45 precedes its arrival at 50 (a no-op);
//   - at 104, id 9's cancel, id 11's arrival, id 11's cancel and id 9's
//     block boundary all coincide.
func tieArrivals() []workload.Arrival {
	return []workload.Arrival{
		{ID: 0, Model: "long", AtMs: 0},
		{ID: 1, Model: "short", AtMs: 10},
		{ID: 2, Model: "short", AtMs: 12, CancelAtMs: 20},
		{ID: 3, Model: "long", AtMs: 20},
		{ID: 4, Model: "mid", AtMs: 20},
		{ID: 5, Model: "short", AtMs: 40, CancelAtMs: 40},
		{ID: 6, Model: "short", AtMs: 50, CancelAtMs: 45},
		{ID: 7, Model: "long", AtMs: 60, CancelAtMs: 70},
		{ID: 8, Model: "short", AtMs: 70},
		{ID: 9, Model: "mid", AtMs: 100, CancelAtMs: 104},
		{ID: 10, Model: "short", AtMs: 100},
		{ID: 11, Model: "long", AtMs: 104, CancelAtMs: 104},
		{ID: 12, Model: "mid", AtMs: 130},
		{ID: 13, Model: "long", AtMs: 130, CancelAtMs: 150},
		{ID: 14, Model: "short", AtMs: 150},
	}
}

var tieCases = []goldenCase{
	{name: "ties",
		records:   "c52e4e9275bb296bb5d338872de7c05e26f710bdae1189767964eb74648a14b1",
		events:    "df3f15b2a3bfbd1138c7ab7b875e436f5586a47bd3f2ce84564b1f5473e48583",
		configure: func(s *policy.Split) {}},
	{name: "ties-devices2",
		records: "0f3f91108a0610c0fa0e3ad5219c5aa7700f3ac35a78083ea0f05254971cec9a",
		events:  "4da044bb0e9859b4148cf08a05d9f4016805f5a5536dcf6d7f6bf01055682a32",
		configure: func(s *policy.Split) {
			s.Devices, s.Placement = 2, place.RoundRobin
		}},
	{name: "ties-batch2-deadlines",
		records: "87b3f2ec8ab5f3779de6833a1fece94d9c316e8b9063f18d455c5db05ea94662",
		events:  "8bd34d8fb34a91bf0a1f47eaaebf2d8aad92afca19cc1c4ccbe5c8d1baec030f",
		configure: func(s *policy.Split) {
			s.BatchMax, s.EnforceDeadlines, s.Alpha = 2, true, 1.5
		}},
}

// baselineCase pins one baseline system on the heavy golden trace
// (records, events) and on the tie trace (tieRecords, tieEvents).
type baselineCase struct {
	name                  string
	system                func() policy.System
	records, events       string
	tieRecords, tieEvents string
}

var baselineCases = []baselineCase{
	{name: "ClockWork", system: func() policy.System { return policy.NewClockWork() },
		records:    "e47bf8934cc3a320f061d7cfaddd9905b467b57b7229b6734a294881cb4412fb",
		events:     "3063cab39f19e7ff28ad4c0f6e06f6b8883c45572f17625936b4c24ac327c8de",
		tieRecords: "02471ea1107a7481f74abf4805c1b0f796f099126f4a84ed232ebbb0c655603e",
		tieEvents:  "ef8f9c6534f43ac0a2fc90efb922b84a645ae710bc6e2b050038c26e6d1d83be"},
	{name: "PREMA", system: func() policy.System { return policy.NewPREMA() },
		records:    "524a0feee67780afc038e5ed2e17b9a22d5e655a0de03c21c69f638ee9610bfd",
		events:     "8026b9cd0b7812a57c7a71a3e6e84d87e56257238f18790e6e01b07d3d366380",
		tieRecords: "886baa513e1c10b81dace53d420fbd74c9468b21d64512fa1f03185c17320844",
		tieEvents:  "160ba6c5485a17ee7cd2d3300e17885c625144aeab208001d24bda85a69e98d3"},
	{name: "REEF", system: func() policy.System { return policy.NewREEF() },
		records:    "05fb521e82f4e89473182eb13b8d0899493678752ad782bfe303958622559d12",
		events:     "6f94d920cfaaba3fa9e254c341e3ba59693009bb1bff1319ee65b4ef3b5dbac1",
		tieRecords: "1fefccfa5b30b5e26318b5724cf4cdc75b8302310e8023692da22bab1bb24f5c",
		tieEvents:  "a71d911e9445870ca6871a7480ad0d1952ba61827117aedf070a8e1fb8896e67"},
	{name: "RT-A", system: func() policy.System { return policy.NewRTA() },
		records:    "b6d867030d482e3bae3310fe53bd7f5728a43f6c7c86fe830f226f01b62cc4ef",
		events:     "21952840f00cc93ff6067fbb57f1251be673e71ff4af80a80a048db81fd2270e",
		tieRecords: "939d9e08ca0226ccfd78fb3674ad86d09c01ae5cb0122574af1044d43ba437ee",
		tieEvents:  "d7c03617fa32ca689374db43b6dd8cf493a34a0bc45b03c4caeb9c02248a22fc"},
	{name: "Stream-Parallel", system: func() policy.System { return policy.NewStreamParallel() },
		records:    "89ab3d81e23b4d1d0fbdb6ad535ad2a1cbba3582642be6fe1269be98ecd82b49",
		events:     "0b52cc2479c035a8689cd5cdb6c452b0112cc97e487784f602554405e67e8a7c",
		tieRecords: "cf6d6931965f988d8af276a91b23fa5ea60894a7e17e023c70d912d9116791b7",
		tieEvents:  "569b6cc0b4eddb21ef715166c05836029adf32db45ebd3081754a56d502d025d"},
}

// checkBaselineDigests runs one baseline over arrivals as a subtest and
// compares its record and event digests.
func checkBaselineDigests(t *testing.T, bc baselineCase, name string, arrivals []workload.Arrival, catalog policy.Catalog, records, events string) {
	t.Run(name, func(t *testing.T) {
		tr := trace.New()
		recs := bc.system().Run(arrivals, catalog, tr)
		if len(recs) != len(arrivals) {
			t.Fatalf("%d records for %d arrivals", len(recs), len(arrivals))
		}
		gotRecs, gotEvents := digest(recs), digest(tr.Events())
		if gotRecs != records || gotEvents != events {
			t.Errorf("digests changed:\n\trecords: %q,\n\tevents:  %q,", gotRecs, gotEvents)
		}
	})
}

func anySlice[T any](vals []T) []any {
	out := make([]any, len(vals))
	for i, v := range vals {
		out[i] = v
	}
	return out
}
