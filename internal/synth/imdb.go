package synth

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"shine/internal/corpus"
	"shine/internal/hin"
	"shine/internal/textproc"
)

// IMDBConfig parameterises the synthetic IMDb-schema network used to
// demonstrate the model's schema generality (Section 4 of the paper
// sketches actor linking over IMDb).
type IMDBConfig struct {
	Seed              int64
	RegularActors     int
	AmbiguousGroups   int
	MinGroupSize      int
	MaxGroupSize      int
	Genres            int
	DirectorsPerGenre int
	KeywordsPerGenre  int
	MaxMoviesPerActor int
	KeywordsPerMovie  int
	NumDocs           int
}

// DefaultIMDBConfig returns a small actor-linking scenario.
func DefaultIMDBConfig() IMDBConfig {
	return IMDBConfig{
		Seed:              11,
		RegularActors:     600,
		AmbiguousGroups:   8,
		MinGroupSize:      3,
		MaxGroupSize:      8,
		Genres:            6,
		DirectorsPerGenre: 6,
		KeywordsPerGenre:  30,
		MaxMoviesPerActor: 30,
		KeywordsPerMovie:  4,
		NumDocs:           120,
	}
}

// IMDBData is the generated IMDb network plus document side data.
type IMDBData struct {
	Schema *hin.IMDBSchema
	Graph  *hin.Graph
	Groups []AmbiguityGroup
	// ActorGenre maps each actor to its primary genre.
	ActorGenre map[hin.ObjectID]int
	// MovieCount maps each actor to its number of movies.
	MovieCount map[hin.ObjectID]int
	// KeywordWord maps keyword stems back to raw words.
	KeywordWord map[string]string
	// GenreKeywords lists raw keyword words per genre.
	GenreKeywords [][]string
	// RawDocs and Corpus are the generated actor-mention documents.
	RawDocs []RawDoc
	Corpus  *corpus.Corpus
}

var genreNames = []string{"Action", "Drama", "Comedy", "Thriller", "Horror", "Romance", "Western", "Scifi"}

// GenerateIMDB builds a synthetic IMDb-schema network and an
// actor-mention document collection over it.
func GenerateIMDB(cfg IMDBConfig) (*IMDBData, error) {
	if cfg.RegularActors < 0 || cfg.AmbiguousGroups < 1 || cfg.MinGroupSize < 2 ||
		cfg.MaxGroupSize < cfg.MinGroupSize || cfg.Genres < 1 || cfg.Genres > len(genreNames) ||
		cfg.MaxMoviesPerActor < 1 || cfg.NumDocs < 1 {
		return nil, fmt.Errorf("synth: invalid IMDb config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := hin.NewIMDBSchema()
	b := hin.NewBuilder(m.Schema)
	data := &IMDBData{
		Schema:      m,
		ActorGenre:  make(map[hin.ObjectID]int),
		MovieCount:  make(map[hin.ObjectID]int),
		KeywordWord: make(map[string]string),
	}

	// Genres, directors and keywords.
	genres := make([]hin.ObjectID, cfg.Genres)
	directors := make([][]hin.ObjectID, cfg.Genres)
	keywords := make([][]hin.ObjectID, cfg.Genres)
	data.GenreKeywords = make([][]string, cfg.Genres)
	for gidx := 0; gidx < cfg.Genres; gidx++ {
		genres[gidx] = b.MustAddObject(m.Genre, genreNames[gidx])
		for di := 0; di < cfg.DirectorsPerGenre; di++ {
			directors[gidx] = append(directors[gidx],
				b.MustAddObject(m.Director, fmt.Sprintf("Director %s %d", genreNames[gidx], di)))
		}
		for ki := 0; ki < cfg.KeywordsPerGenre; ki++ {
			word := synthWord(100+gidx, ki)
			stem := textproc.NormalizeTerm(word)
			id := b.MustAddObject(m.Keyword, stem)
			if _, ok := data.KeywordWord[stem]; !ok {
				data.KeywordWord[stem] = word
			}
			keywords[gidx] = append(keywords[gidx], id)
			data.GenreKeywords[gidx] = append(data.GenreKeywords[gidx], word)
		}
	}

	// Actors: unique names plus ambiguous groups.
	namePairs := rng.Perm(len(firstNames) * len(lastNames))
	need := cfg.RegularActors + cfg.AmbiguousGroups
	if need > len(namePairs) {
		return nil, fmt.Errorf("synth: %d actor names requested, %d available", need, len(namePairs))
	}
	pairName := func(k int) string {
		p := namePairs[k]
		return fullName(p/len(lastNames), p%len(lastNames))
	}
	var actors []hin.ObjectID
	byGenre := make([][]hin.ObjectID, cfg.Genres)
	addActor := func(name string, genre int) hin.ObjectID {
		a := b.MustAddObject(m.Actor, name)
		data.ActorGenre[a] = genre
		actors = append(actors, a)
		byGenre[genre] = append(byGenre[genre], a)
		return a
	}
	for k := 0; k < cfg.RegularActors; k++ {
		addActor(pairName(k), rng.Intn(cfg.Genres))
	}
	for gi := 0; gi < cfg.AmbiguousGroups; gi++ {
		surface := pairName(cfg.RegularActors + gi)
		size := cfg.MinGroupSize + rng.Intn(cfg.MaxGroupSize-cfg.MinGroupSize+1)
		grp := AmbiguityGroup{Surface: surface}
		for mi := 0; mi < size; mi++ {
			genre := (gi + mi) % cfg.Genres
			grp.Members = append(grp.Members, addActor(fmt.Sprintf("%s %04d", surface, mi+1), genre))
		}
		data.Groups = append(data.Groups, grp)
	}

	// Movies.
	seq := 0
	for _, a := range actors {
		genre := data.ActorGenre[a]
		n := zipfCount(rng, 1.1, cfg.MaxMoviesPerActor)
		data.MovieCount[a] += n
		for i := 0; i < n; i++ {
			mv := b.MustAddObject(m.Movie, fmt.Sprintf("movie-%06d", seq))
			seq++
			b.MustAddLink(m.Perform, a, mv)
			if k := rng.Intn(3); k > 0 && len(byGenre[genre]) > 1 {
				for c := 0; c < k; c++ {
					co := byGenre[genre][rng.Intn(len(byGenre[genre]))]
					if co != a {
						b.MustAddLink(m.Perform, co, mv)
						data.MovieCount[co]++
					}
				}
			}
			b.MustAddLink(m.BelongTo, mv, genres[genre])
			b.MustAddLink(m.Direct, directors[genre][rng.Intn(len(directors[genre]))], mv)
			for ki := 0; ki < cfg.KeywordsPerMovie; ki++ {
				b.MustAddLink(m.Contain, mv, keywords[genre][rng.Intn(len(keywords[genre]))])
			}
		}
	}
	data.Graph = b.Build()
	if err := data.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("synth: generated IMDb graph invalid: %w", err)
	}

	if err := generateIMDBDocs(rng, data, cfg); err != nil {
		return nil, err
	}
	return data, nil
}

// generateIMDBDocs renders actor-mention documents and ingests them.
func generateIMDBDocs(rng *rand.Rand, data *IMDBData, cfg IMDBConfig) error {
	var eligible []AmbiguityGroup
	for _, grp := range data.Groups {
		if len(grp.Members) >= 2 {
			eligible = append(eligible, grp)
		}
	}
	if len(eligible) == 0 {
		return fmt.Errorf("synth: no ambiguous actor groups generated")
	}
	g, m := data.Graph, data.Schema

	ing, err := corpus.NewIngester(g, corpus.IMDBIngestConfig(m))
	if err != nil {
		return fmt.Errorf("synth: building IMDb ingester: %w", err)
	}
	c := &corpus.Corpus{}
	for i := 0; i < cfg.NumDocs; i++ {
		grp := eligible[i%len(eligible)]
		// Gold weighted by filmography size.
		total := 0
		for _, mem := range grp.Members {
			total += data.MovieCount[mem]
		}
		gold := grp.Members[0]
		if total > 0 {
			r := rng.Intn(total)
			for _, mem := range grp.Members {
				r -= data.MovieCount[mem]
				if r < 0 {
					gold = mem
					break
				}
			}
		}

		var costars, dirs, words []string
		genreSet := map[string]bool{}
		for _, mv := range g.Neighbors(m.Perform, gold) {
			for _, co := range g.Neighbors(m.PerformedBy, mv) {
				if co != gold {
					costars = append(costars, corpus.CanonicalSurface(g.Name(co)))
				}
			}
			for _, dd := range g.Neighbors(m.DirectedBy, mv) {
				dirs = append(dirs, g.Name(dd))
			}
			for _, gg := range g.Neighbors(m.BelongTo, mv) {
				genreSet[g.Name(gg)] = true
			}
			for _, kw := range g.Neighbors(m.Contain, mv) {
				if w, ok := data.KeywordWord[g.Name(kw)]; ok {
					words = append(words, w)
				}
			}
		}
		genreList := make([]string, 0, len(genreSet))
		for gn := range genreSet {
			genreList = append(genreList, gn)
		}
		sort.Strings(genreList)
		var sb strings.Builder
		fmt.Fprintf(&sb, "%s stars in %s films.", grp.Surface, strings.Join(genreList, " "))
		if len(costars) > 0 && rng.Float64() < 0.8 {
			fmt.Fprintf(&sb, " Frequently cast alongside %s.",
				strings.Join(sampleStrings(rng, costars, 2), " and "))
		}
		if len(dirs) > 0 && rng.Float64() < 0.8 {
			fmt.Fprintf(&sb, " Worked with %s.", strings.Join(sampleStrings(rng, dirs, 2), " and "))
		}
		if len(words) > 0 {
			fmt.Fprintf(&sb, " Reviews mention %s.", strings.Join(sampleStrings(rng, words, 5), ", "))
		}
		rd := RawDoc{
			ID:      fmt.Sprintf("imdb-doc-%04d", i),
			Mention: grp.Surface,
			Gold:    gold,
			Text:    sb.String(),
		}
		data.RawDocs = append(data.RawDocs, rd)
		c.Add(ing.Ingest(rd.ID, rd.Mention, rd.Gold, rd.Text))
	}
	data.Corpus = c
	return nil
}
