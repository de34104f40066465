# Trigger: config-durable-volatile (warning) — restart-on-failure with no
# durable log: buffered steps live only in process memory,
# so a process crash loses everything and on_data_loss=fail starts over.
# lint-config: restart-policy=on-failure retain-steps=8 on-data-loss=fail
aprun -n 2 magnitude gmx.fp coords radii.fp radii &
aprun -n 2 histogram radii.fp radii 8 spread.txt &
aprun -n 2 gromacs atoms=256 steps=2 &
wait
