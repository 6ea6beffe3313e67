// Command datagen writes synthetic datasets shaped like the paper's
// Table 2 rows (or protein families) to FASTA files, for use with
// cmd/xdropipu, cmd/elba and cmd/pastis.
//
// Usage:
//
//	datagen -kind reads -out reads.fasta [-genome 500000] [-coverage 10] [-meanlen 2900] [-seed 1]
//	datagen -kind pairs -out pairs.fasta [-count 100] [-len 2000] [-error 0.15]
//	datagen -kind protein -out prot.fasta [-families 20] [-members 4]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/sram-align/xdropipu/internal/seqio"
	"github.com/sram-align/xdropipu/internal/synth"
)

func main() {
	kind := flag.String("kind", "reads", "dataset kind: reads | pairs | protein")
	out := flag.String("out", "", "output FASTA path (required)")
	seed := flag.Int64("seed", 1, "generator seed")
	genome := flag.Int("genome", 500_000, "reads: genome length")
	coverage := flag.Float64("coverage", 10, "reads: sequencing depth")
	meanLen := flag.Int("meanlen", 2900, "reads: mean read length")
	count := flag.Int("count", 100, "pairs: number of pairs")
	length := flag.Int("len", 2000, "pairs: sequence length")
	errRate := flag.Float64("error", 0.15, "pairs: mutation rate")
	families := flag.Int("families", 20, "protein: family count")
	members := flag.Int("members", 4, "protein: members per family")
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}

	var d *synth.Dataset
	var kindOf seqio.Kind
	switch *kind {
	case "reads":
		d = synth.Reads(synth.ReadsSpec{
			Name: "reads", GenomeLen: *genome, Coverage: *coverage,
			MeanReadLen: *meanLen, MinReadLen: *meanLen / 4,
			Errors: synth.HiFiDNA(), SeedLen: 17, MinOverlap: *meanLen / 4, Seed: *seed,
		})
	case "pairs":
		d = synth.UniformPairs(synth.UniformPairsSpec{
			Count: *count, Length: *length, ErrorRate: *errRate, SeedLen: 17, Seed: *seed,
		})
	case "protein":
		d, _ = synth.ProteinFamilies(synth.ProteinFamiliesSpec{
			Families: *families, MembersPerFamily: *members,
			MeanLen: 320, MutRate: 0.18, Seed: *seed,
		})
		kindOf = seqio.Protein
	default:
		fmt.Fprintf(os.Stderr, "datagen: unknown kind %q\n", *kind)
		os.Exit(2)
	}

	recs := make([]*seqio.Sequence, d.NumSeqs())
	for i := range recs {
		recs[i] = &seqio.Sequence{ID: fmt.Sprintf("seq%06d", i), Data: d.Seq(i), Kind: kindOf}
	}
	if err := seqio.WriteFastaFile(*out, recs, 80); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %d sequences to %s\n", len(recs), *out)
}
