// Racehunt: sweep the 32 ScoR microbenchmarks under ScoRD and the four
// comparison detector models (LDetector, HAccRG, Barracuda, CURD), and
// print which detector catches which class of race — a miniature of the
// paper's Table VIII, measured instead of cited. The models ride each
// device's memory-op stream; ScoRD is the device's own detector.
package main

import (
	"fmt"
	"log"
	"strings"

	"scord"
	"scord/internal/replay"
	"scord/internal/scor"
	"scord/internal/scor/micro"
)

func main() {
	names := []string{"LDetector", "HAccRG", "Barracuda", "CURD", "ScoRD"}
	fmt.Printf("%-38s %-6s", "microbenchmark", "racey")
	for _, n := range names {
		fmt.Printf(" %-10s", n)
	}
	fmt.Println()

	for _, m := range micro.All() {
		cfg := scord.DefaultConfig().WithDetector(scord.ModeFull4B)
		dev, err := scord.NewDevice(cfg)
		if err != nil {
			log.Fatal(err)
		}
		var models replay.Sink
		for _, n := range names[:len(names)-1] {
			mod, err := replay.TargetByName(strings.ToLower(n), cfg)
			if err != nil {
				log.Fatal(err)
			}
			models = append(models, mod)
		}
		dev.SetOpSink(models)
		if err := m.Run(dev, nil); err != nil {
			log.Fatalf("%s: %v", m.Name(), err)
		}

		specs := m.ExpectedRaces(nil)
		verdict := func(recs []scord.RaceRecord) string {
			res := scor.MatchRecords(dev.Mem(), recs, specs)
			switch {
			case m.Racey() && len(res.Missed) == 0:
				return "caught"
			case m.Racey():
				return "MISSED"
			case res.AllRecords > 0:
				return "FALSE-POS"
			default:
				return "clean"
			}
		}

		fmt.Printf("%-38s %-6v", m.Name(), m.Racey())
		for _, mod := range models {
			fmt.Printf(" %-10s", verdict(mod.Records()))
		}
		fmt.Printf(" %-10s\n", verdict(dev.Races()))
	}
}
