// Interference demonstrates the paper's Fig. 10(d) finding at the link
// level: strong co-channel pulse interference destroys silence detection
// (false negatives) — but it also destroys the data packets themselves, so
// CoS loses nothing the data plane had not already lost. That is the
// paper's argument for leaving strong interference to MAC coordination.
//
//	go run ./examples/interference
package main

import (
	"fmt"
	"log"
	"math/rand"

	"cos"
)

func run(withInterference bool) (dataPRR, ctrlRate, fnRate float64) {
	opts := []cos.Option{
		cos.WithPosition(cos.PositionB),
		cos.WithSNR(16),
		cos.WithSeed(21),
		cos.WithFixedRate(12),
	}
	if withInterference {
		opts = append(opts, cos.WithScenario("pulse:40,160,0.0001"))
	}
	link, err := cos.NewLink(opts...)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	data := make([]byte, 1024)
	if _, err := link.Send(data, nil); err != nil {
		log.Fatal(err)
	}

	const packets = 120
	var dataOK, ctrlOK, ctrlSent, silences, misses int
	for i := 0; i < packets; i++ {
		rng.Read(data)
		budget, err := link.MaxControlBits(len(data))
		if err != nil {
			log.Fatal(err)
		}
		n := 32
		if n > budget {
			n = budget / 4 * 4
		}
		ctrl := make([]byte, n)
		for j := range ctrl {
			ctrl[j] = byte(rng.Intn(2))
		}
		ex, err := link.Send(data, ctrl)
		if err != nil {
			log.Fatal(err)
		}
		if ex.DataOK {
			dataOK++
		}
		if len(ex.ControlSent) > 0 {
			ctrlSent++
			if ex.ControlOK {
				ctrlOK++
			}
		}
		silences += ex.Detection.Silences
		misses += ex.Detection.FalseNegatives
	}
	dataPRR = float64(dataOK) / packets
	if ctrlSent > 0 {
		ctrlRate = float64(ctrlOK) / float64(ctrlSent)
	}
	if silences > 0 {
		fnRate = float64(misses) / float64(silences)
	}
	return dataPRR, ctrlRate, fnRate
}

func main() {
	cleanData, cleanCtrl, cleanFN := run(false)
	dirtyData, dirtyCtrl, dirtyFN := run(true)

	fmt.Printf("%-28s %-12s %-12s\n", "", "clean", "interfered")
	fmt.Printf("%-28s %-12.3f %-12.3f\n", "data PRR", cleanData, dirtyData)
	fmt.Printf("%-28s %-12.3f %-12.3f\n", "control delivery rate", cleanCtrl, dirtyCtrl)
	fmt.Printf("%-28s %-12.4f %-12.4f\n", "silence false-negative rate", cleanFN, dirtyFN)
	fmt.Println("\nStrong interference raises false negatives sharply — but the data")
	fmt.Println("packets it hits fail their FCS anyway, so receiver loses data and")
	fmt.Println("control together (the paper's Sec. IV-C argument).")
}
