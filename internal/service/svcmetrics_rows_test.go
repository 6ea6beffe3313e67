// White-box half of the exposition contract: the family table must read
// every counter a shard reports.

package service

import (
	"reflect"
	"testing"
)

// TestShardFamiliesRenderEveryStatsField gives each engine.Stats field a
// distinct value and requires some shardFamilies row to read it back — a
// Stats field added without its Prometheus row fails here.
func TestShardFamiliesRenderEveryStatsField(t *testing.T) {
	var sn ShardSnapshot
	sv := reflect.ValueOf(&sn.Stats).Elem()
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetInt(int64(1000 + i))
	}
	rendered := map[float64]string{}
	for _, row := range shardFamilies {
		rendered[row.get(&sn)] = row.name
	}
	for i := 0; i < sv.NumField(); i++ {
		if _, ok := rendered[float64(1000+i)]; !ok {
			t.Errorf("engine.Stats.%s is rendered by no /v1/metrics family", sv.Type().Field(i).Name)
		}
	}
}
