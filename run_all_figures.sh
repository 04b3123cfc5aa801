#!/bin/bash
# Runs every figure and ablation at full paper scale, writing CSV to
# results/ (build first: cargo build --release -p cpq-bench).
set -u
cd "$(dirname "$0")"
mkdir -p results
./target/release/figures all "$@"
