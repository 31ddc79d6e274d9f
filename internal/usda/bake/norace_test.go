//go:build !race

package bake

const raceEnabled = false
