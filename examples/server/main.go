// Server demonstrates the real-time serving path (§4): it starts an
// in-process splitd-style RPC server at 20x accelerated time, fires a burst
// of concurrent clients at it — long detections plus short classifications —
// and prints each request's measured QoS, showing the greedy block
// preemption working over actual wall-clock execution and net/rpc.
package main

import (
	"fmt"
	"log"
	"net"
	"sort"
	"sync"

	"split"
	"split/internal/sched"
)

func main() {
	dep, err := split.Deploy()
	if err != nil {
		log.Fatal(err)
	}
	srv, err := split.NewServerWith(dep.Catalog,
		split.WithAlpha(4),
		split.WithElastic(sched.DefaultElastic()),
		split.WithTimeScale(0.05), // 20x faster than the simulated device
	)
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
	fmt.Printf("serving %d models on %s (20x accelerated)\n\n", len(dep.Catalog), srv.Addr())

	client, err := split.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Fire a long request immediately, then a wave of shorts right behind
	// it, all concurrently — the contention pattern of Figure 1.
	jobs := []string{"vgg19", "yolov2", "googlenet", "yolov2", "resnet50", "googlenet", "gpt2", "yolov2"}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var replies []split.InferReply
	for _, m := range jobs {
		wg.Add(1)
		go func(m string) {
			defer wg.Done()
			r, err := client.Infer(m)
			if err != nil {
				log.Println("infer:", err)
				return
			}
			mu.Lock()
			replies = append(replies, r)
			mu.Unlock()
		}(m)
	}
	wg.Wait()

	sort.Slice(replies, func(i, j int) bool { return replies[i].ReqID < replies[j].ReqID })
	fmt.Printf("%-4s %-10s %7s %10s %10s %8s %9s\n",
		"req", "model", "blocks", "e2e(ms)", "wait(ms)", "RR", "preempts")
	for _, r := range replies {
		fmt.Printf("%-4d %-10s %7d %10.2f %10.2f %8.2f %9d\n",
			r.ReqID, r.Model, r.Blocks, r.E2EMs, r.WaitMs, r.ResponseRatio, r.Preemptions)
	}
	st, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserver: served=%d queued=%d uptime=%.2fs wall\n", st.Served, st.Queued, st.UptimeS)
}
