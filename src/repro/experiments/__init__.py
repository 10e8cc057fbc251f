"""Experiment orchestration: multi-seed sweeps over platforms and n.

The paper cautions that "the running time for the both platforms and
the optimal number of used clusters of transcripts may vary for every
new run due to the availability of the current resources" (§VI-A).
:mod:`repro.experiments.sweep` makes that variability first-class:
run a configuration across seeds, get distribution statistics, and
compare platforms on equal footing.
"""
