package ipu

import (
	"math"
	"testing"

	"github.com/sram-align/xdropipu/internal/platform"
)

func TestNewDefaults(t *testing.T) {
	d := New(Config{Model: platform.GC200})
	if d.Tiles() != 1472 {
		t.Errorf("Tiles = %d, want 1472", d.Tiles())
	}
	if d.DataSRAM() != 624*1024-72*1024 {
		t.Errorf("DataSRAM = %d", d.DataSRAM())
	}
	d = New(Config{Model: platform.GC200, TilesEnabled: 4})
	if d.Tiles() != 4 {
		t.Errorf("restricted Tiles = %d, want 4", d.Tiles())
	}
	d = New(Config{Model: platform.GC200, TilesEnabled: 99999})
	if d.Tiles() != 1472 {
		t.Errorf("over-restricted Tiles = %d, want clamp to 1472", d.Tiles())
	}
}

func TestThreadSeconds(t *testing.T) {
	// One instruction per 6 cycles at 1.33 GHz.
	got := platform.GC200.ThreadSeconds(1_000_000)
	want := 6e6 / 1.33e9
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("ThreadSeconds = %g, want %g", got, want)
	}
}

func TestRunSuperstepBSPSemantics(t *testing.T) {
	d := New(Config{Model: platform.GC200, TilesEnabled: 8})
	// The superstep lasts as long as the slowest tile.
	secs, err := d.RunSuperstep(Superstep{TileInstr: []int64{100, 5000, 300}})
	if err != nil {
		t.Fatal(err)
	}
	want := platform.GC200.ThreadSeconds(5000) + syncSeconds
	if secs != want {
		t.Errorf("superstep = %g, want %g", secs, want)
	}
}

func TestRunSuperstepRejectsTooManyTiles(t *testing.T) {
	d := New(Config{Model: platform.GC200, TilesEnabled: 2})
	if _, err := d.RunSuperstep(Superstep{TileInstr: make([]int64, 3)}); err == nil {
		t.Error("superstep with too many tiles accepted")
	}
}

func TestRunSuperstepRejectsSRAMOverflow(t *testing.T) {
	d := New(Config{Model: platform.GC200})
	_, err := d.RunSuperstep(Superstep{TileInstr: []int64{1}, SRAMUsed: 700 * 1024})
	if err == nil {
		t.Error("SRAM overflow accepted")
	}
}

func TestExchangeAccounting(t *testing.T) {
	d := New(Config{Model: platform.BOW})
	secs, err := d.RunSuperstep(Superstep{TileInstr: []int64{10}, ExchangeBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	exchange := secs - platform.BOW.ThreadSeconds(10) - 1.5e-6 // the fixed 1.5 µs barrier
	want := float64(1<<30) / 10.9e12
	if math.Abs(exchange-want)/want > 1e-9 {
		t.Errorf("exchange = %g s, want %g", exchange, want)
	}
}
