"""Seeded query streams and append batches, built with ``repro.watdiv``.

The program under test only ever receives the generated texts and triples;
the seed stays here.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.rdf.triple import Triple
from repro.watdiv import BASIC_TEMPLATES, INCREMENTAL_TEMPLATES, QueryTemplate, generate_dataset
from repro.watdiv.generator import WatDivDataset
from repro.watdiv.template import instantiate_template


class Query(NamedTuple):
    template: str
    category: str
    text: str


class QueryPool:
    """Each template instantiated ``instances`` times with random constants.

    A template without placeholders has a single text.  Streams run in
    rounds: each round draws every parameterized template ``draws[0]`` times
    and every fixed-text template ``draws[1]`` times, in a fresh random
    order, each time with one of the template's instances chosen uniformly.
    Every prefix of a stream then has the same template mix to within one
    round, so throughput does not depend on which templates the seed
    happened to favour.  The weights keep the slowest templates' share of a
    round away from 5%: with 20 Basic templates drawn once each, C3 filled
    the top 5% exactly and p95 fell on the edge of its latencies, jumping by
    a third between runs.  Templates repeat by design; exact texts repeat
    where the pool is small.
    """

    def __init__(
        self,
        templates: Sequence[QueryTemplate],
        dataset: WatDivDataset,
        instances: int,
        draws: Tuple[int, int],
        seed: int,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.instances: List[List[Query]] = []
        #: Index into ``instances`` of every draw of one round.
        self.round: List[int] = []
        for index, template in enumerate(templates):
            count = instances if template.is_parameterized() else 1
            self.instances.append(
                [
                    Query(template.name, template.category, instantiate_template(template, dataset, rng))
                    for _ in range(count)
                ]
            )
            self.round += [index] * draws[0 if template.is_parameterized() else 1]

    def first_of_each(self) -> List[Query]:
        return [texts[0] for texts in self.instances]

    def stream(self, seed: int) -> Iterator[Query]:
        rng = np.random.default_rng(seed)
        while True:
            for position in rng.permutation(len(self.round)):
                texts = self.instances[self.round[int(position)]]
                yield texts[int(rng.integers(len(texts)))]


def basic_pool(dataset: WatDivDataset, instances: int, draws: Tuple[int, int], seed: int) -> QueryPool:
    return QueryPool(BASIC_TEMPLATES, dataset, instances, draws, seed)


def incremental_pool(dataset: WatDivDataset, instances: int, draws: Tuple[int, int], seed: int) -> QueryPool:
    return QueryPool(INCREMENTAL_TEMPLATES, dataset, instances, draws, seed)


def novel_batches(
    base: WatDivDataset, seed: int, batches: int, batch_size: int
) -> List[List[Triple]]:
    """Triples of another generator seed that the base graph lacks, in batches.

    The candidates are put in a fixed order (their N-Triples text) before a
    seeded shuffle, so the batches do not depend on set iteration order.
    """
    other = generate_dataset(base.scale_factor, seed=seed)
    novel = sorted((t for t in other.graph if t not in base.graph), key=lambda t: t.n3())
    order = np.random.default_rng(seed).permutation(len(novel))
    needed = batches * batch_size
    if needed > len(novel):
        raise ValueError(f"only {len(novel)} novel triples for {needed} appends")
    picked = [novel[int(i)] for i in order[:needed]]
    return [picked[i * batch_size : (i + 1) * batch_size] for i in range(batches)]
