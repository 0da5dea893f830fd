package main

// storedDigests are the reference digests of the validity checks, keyed
// by "<check>/<size>" and then by seed. Seed 1 is the tuning seed; seed 2
// is held out for checking claims made with seed 1.
//
//   - kernel-glitch: SHA-256 over every corpus job's digest (its output
//     signals and exact kernel counters), in corpus order.
//   - sweep: SHA-256 of the check-set report in `simctl sweep -csv`
//     columns; sweep-cold and sweep-warm must both produce it.
//
// A change that moves one of these changed what the program computes; a
// speed-only change must leave them alone.
var storedDigests = map[string]map[int64]string{
	"kernel-glitch/full": {
		1: "a4fdfdf0f2bc4e46f248070d1b2bb9af10e4128f229aed65fb75ec2854734c7a",
		2: "0b8197ebddc5db03bee3e1c0e57a9e7525b14458e67b5ef20dfd762d4f5d2f92",
	},
	"kernel-glitch/tiny": {
		1: "b64d6bb9d77623fe0500ba01a426c8166260f4ffcb0cf17db3c38f8adf3816fd",
		2: "ca753b6356cfa5300a1bcd656358e94615a1de01ee4a57c00d3e8c2c4d9bd132",
	},
	"sweep/full": {
		1: "47eed5f38d794ce560d4540f3d4b5c2e747a1841adfafb6ca915a4be1d959769",
		2: "492ca0c14219bec5e5df5a7ee565942dd1a9baf058994084ec71ff986b5f73e2",
	},
	"sweep/tiny": {
		1: "8d5dfd5371d221d58ec769a08b0a6ad71d2a993506d0bf8b6ef4d89304343b53",
		2: "189a62620a3357d057fec32349b0e02d4d45fcecd72779f6318336cff297df50",
	},
}
