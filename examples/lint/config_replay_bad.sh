# Trigger: config-replay-impossible (warning) — restart-on-failure with no
# retained steps, no durable log, and a dropping data-loss policy: a restarted
# component has nothing to replay.
# lint-config: restart-policy=on-failure retain-steps=0 on-data-loss=skip
aprun -n 2 magnitude gmx.fp coords radii.fp radii &
aprun -n 2 histogram radii.fp radii 8 spread.txt &
aprun -n 2 gromacs atoms=256 steps=2 &
wait
