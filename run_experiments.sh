#!/bin/bash
# Regenerates every table/figure at smoke scale, centerpiece first.
cd "$(dirname "$0")"
mkdir -p reports/logs
B=target/release
$B/table1    --out reports > reports/logs/table1.log 2>&1
$B/fig3      --out reports > reports/logs/fig3.log 2>&1
$B/fig4a     --out reports > reports/logs/fig4a.log 2>&1
$B/fig4b     --out reports > reports/logs/fig4b.log 2>&1
$B/ablations --out reports > reports/logs/ablations.log 2>&1
$B/cross_arch --out reports > reports/logs/cross_arch.log 2>&1
$B/fig2      --out reports > reports/logs/fig2.log 2>&1
$B/table2    --out reports > reports/logs/table2.log 2>&1
echo ALL_EXPERIMENTS_DONE > reports/logs/DONE
