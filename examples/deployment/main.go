// Deployment walks the full SPLIT operational workflow of §4.1: (1) split
// long models offline with the genetic algorithm, (2) persist the plans as
// JSON artifacts (the .onnx-block analogue), (3) start the serving daemon
// from those artifacts, (4) hot-deploy an extra model at runtime through the
// deployment-manager RPC, and (5) issue inference requests against the live
// deployment.
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"

	"split"
	"split/internal/onnxlite"
	"split/internal/policy"
	"split/internal/sched"
	"split/internal/serve"
)

func main() {
	dir, err := os.MkdirTemp("", "split-plans-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// (1) Offline: split the long models.
	plans := map[string]*split.SplitPlan{}
	for name, blocks := range map[string]int{"resnet50": 2, "vgg19": 3} {
		g, err := split.LoadModel(name)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := split.SplitModel(g, blocks, split.DefaultCost())
		if err != nil {
			log.Fatal(err)
		}
		plans[name] = plan
		fmt.Printf("offline: %s -> %d blocks, std %.3f ms, overhead %.1f%%\n",
			name, plan.NumBlocks(), plan.StdDevMs, plan.OverheadRatio*100)
	}

	// (2) Persist plan artifacts.
	if err := onnxlite.SavePlanDir(dir, plans); err != nil {
		log.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.plan.json"))
	fmt.Printf("persisted %d plan artifacts in %s\n", len(files), dir)

	// (3) Online: load artifacts and start the daemon (20x accelerated).
	loaded, err := onnxlite.LoadPlanDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	graphs := map[string]*split.Graph{}
	for _, name := range split.BenchmarkModels() {
		g, err := split.LoadModel(name)
		if err != nil {
			log.Fatal(err)
		}
		graphs[name] = g
	}
	srv, err := serve.New(policy.NewCatalog(graphs, loaded),
		serve.WithAlpha(4), serve.WithElastic(sched.DefaultElastic()), serve.WithTimeScale(0.05))
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start(l); err != nil {
		log.Fatal(err)
	}
	defer srv.Stop()

	client, err := serve.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// (4) Hot-deploy a custom model at runtime.
	if _, err := client.Deploy(serve.DeployArgs{
		Name:         "pose-estimator",
		Class:        "Short",
		ExtMs:        7.5,
		BlockTimesMs: nil, // short model: served unsplit
	}); err != nil {
		log.Fatal(err)
	}
	models, err := client.ListModels()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nlive deployment:")
	for _, m := range models {
		fmt.Printf("  %-16s %-6s ext=%.2fms blocks=%d\n", m.Name, m.Class, m.ExtMs, m.Blocks)
	}

	// (5) Serve requests against the updated deployment.
	fmt.Println("\ninference:")
	for _, m := range []string{"vgg19", "pose-estimator", "yolov2"} {
		reply, err := client.Infer(m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-16s blocks=%d e2e=%7.2fms rr=%.2f\n",
			reply.Model, reply.Blocks, reply.E2EMs, reply.ResponseRatio)
	}
}
