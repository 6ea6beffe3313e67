// Searchspace: visualise how the X-Drop threshold bounds the computed
// region of the DP matrix (the paper's Fig. 2) as an ASCII density map.
package main

import (
	"log"
	"os"

	"github.com/sram-align/xdropipu/internal/bench"
)

func main() {
	if err := bench.Fig2(bench.Options{W: os.Stdout}); err != nil {
		log.Fatal(err)
	}
}
