// Command cos-wlan runs the access-coordination WLAN simulation: an AP
// serving several stations, with transmission grants carried either by CoS
// (free, inside data packets) or by explicit control frames. It prints the
// airtime and delivery comparison.
//
//	cos-wlan -stations 3 -rounds 100 -snr 18
//	cos-wlan -rounds 2000 -metrics-addr :8080 -stats 5s
//
// Ctrl-C (or SIGTERM) cancels the simulation mid-run and exits 130.
package main

import (
	"flag"
	"fmt"
	"os"

	"cos/internal/cli"
	"cos/internal/wlan"
)

func main() {
	var (
		stations = flag.Int("stations", 3, "number of stations (1-15)")
		rounds   = flag.Int("rounds", 100, "scheduling rounds")
		snr      = flag.Float64("snr", 18, "per-station true SNR in dB")
		payload  = flag.Int("payload", 1024, "data payload bytes")
		seed     = flag.Int64("seed", 1, "simulation seed")
	)
	obsAddr, obsStats := cli.ObsFlags(flag.CommandLine)
	flag.Parse()

	app, err := cli.Boot(*obsAddr, *obsStats, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cos-wlan: %v\n", err)
		os.Exit(1)
	}
	defer app.Close()

	cosRep, expRep, err := wlan.Compare(app.Context(), wlan.Config{
		Stations:     *stations,
		SNRdB:        *snr,
		PayloadBytes: *payload,
		Seed:         *seed,
	}, *rounds)
	if err != nil {
		if cli.Interrupted(err) {
			fmt.Fprintln(os.Stderr, "cos-wlan: interrupted")
			os.Exit(cli.ExitInterrupted)
		}
		fmt.Fprintf(os.Stderr, "cos-wlan: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("stations=%d rounds=%d snr=%.1fdB payload=%dB\n\n", *stations, *rounds, *snr, *payload)
	fmt.Printf("%-30s %-14s %-14s\n", "", "CoS grants", "explicit grants")
	row := func(name, a, b string) { fmt.Printf("%-30s %-14s %-14s\n", name, a, b) }
	row("data delivered",
		fmt.Sprintf("%d/%d", cosRep.DataDelivered, cosRep.DataDelivered+cosRep.DataLost),
		fmt.Sprintf("%d/%d", expRep.DataDelivered, expRep.DataDelivered+expRep.DataLost))
	row("grant delivery rate",
		fmt.Sprintf("%.3f", cosRep.GrantDeliveryRate()),
		fmt.Sprintf("%.3f", expRep.GrantDeliveryRate()))
	row("data airtime",
		fmt.Sprintf("%.2f ms", cosRep.DataAirtime*1e3),
		fmt.Sprintf("%.2f ms", expRep.DataAirtime*1e3))
	row("control airtime",
		fmt.Sprintf("%.2f ms", cosRep.ControlAirtime*1e3),
		fmt.Sprintf("%.2f ms", expRep.ControlAirtime*1e3))
	row("control overhead",
		fmt.Sprintf("%.2f%%", 100*cosRep.ControlOverhead()),
		fmt.Sprintf("%.2f%%", 100*expRep.ControlOverhead()))
}
